package opt

import (
	"fmt"
	"testing"

	"csspgo/internal/analysis"
	"csspgo/internal/codegen"
	"csspgo/internal/fuzzgen"
	"csspgo/internal/ir"
	"csspgo/internal/irgen"
	"csspgo/internal/probe"
	"csspgo/internal/profdata"
	"csspgo/internal/sampling"
	"csspgo/internal/sim"
	"csspgo/internal/source"
)

// This file is a randomized semantic-preservation harness: seeded random
// MiniLang programs are compiled at every optimization configuration —
// training pipelines at all barrier strengths and full PGO pipelines with
// real collected profiles — and must produce bit-identical outputs to the
// unoptimized build on shared inputs. It is the broadest correctness net
// over the optimizer, inliners, ICP, layout, splitting and codegen.

func runConfig(t *testing.T, src string, build func(p *ir.Program) error, inputs [][]int64) []int64 {
	t.Helper()
	f, err := source.Parse("fuzz.ml", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatalf("lower: %v\n%s", err, src)
	}
	if build != nil {
		if err := build(p); err != nil {
			t.Fatalf("build: %v\n%s", err, src)
		}
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.PMUConfig{})
	m.MaxSteps = 100_000_000
	var outs []int64
	for _, in := range inputs {
		m.Reset()
		v, err := m.Run(in...)
		if err != nil {
			t.Fatalf("run%v: %v", in, err)
		}
		outs = append(outs, v)
	}
	return outs
}

func TestRandomProgramsSemanticPreservation(t *testing.T) {
	seeds := []int64{1, 7, 42, 99, 1234, 5150, 90210, 31337, 2, 3, 11, 123, 777, 4242, 88888, 101010}
	if testing.Short() {
		seeds = seeds[:3]
	}
	inputs := [][]int64{{0, 0}, {1, 3}, {17, 5}, {100, 42}, {-7, 9}, {999, 1}}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := fuzzgen.Program(seed)
			ref := runConfig(t, src, nil, inputs)

			check := func(name string, build func(p *ir.Program) error) {
				got := runConfig(t, src, build, inputs)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("%s: input %v => %d, want %d\nprogram:\n%s",
							name, inputs[i], got[i], ref[i], src)
					}
				}
			}

			check("training-none", func(p *ir.Program) error {
				_, err := Optimize(p, TrainingConfig())
				return err
			})
			check("training-weak-probes", func(p *ir.Program) error {
				probe.InsertProgram(p)
				cfg := TrainingConfig()
				cfg.Barrier = BarrierWeak
				_, err := Optimize(p, cfg)
				return err
			})
			check("training-strong-probes", func(p *ir.Program) error {
				probe.InsertProgram(p)
				cfg := TrainingConfig()
				cfg.Barrier = BarrierStrong
				_, err := Optimize(p, cfg)
				return err
			})
			check("full-csspgo-pipeline", func(p *ir.Program) error {
				// Train a probed sibling, profile it, then optimize p with
				// the CS profile at full throttle. VerifyEach turns the
				// analysis suite into a per-pass fuzz oracle.
				train := runTrainingBuild(t, src)
				probe.InsertProgram(p)
				cfg := &Config{
					Profile: train, Barrier: BarrierWeak, Inference: true,
					Inline: DefaultInlineParams(), UnrollFactor: 4,
					EnableTCE: true, Layout: true, Split: true,
					CSHotContextThreshold: 2,
					VerifyEach:            true,
				}
				if _, err := Optimize(p, cfg); err != nil {
					return err
				}
				// End-state oracle: any fuzzed program that passes ir.Verify
				// must leave the pipeline flow-conserved, since inference ran
				// after the last CFG-perturbing pass.
				if e := analysis.FirstError(analysis.CheckProgram(p, analysis.DefaultOptions())); e != nil {
					return fmt.Errorf("analysis oracle: %s", e)
				}
				return nil
			})
		})
	}
}

// runTrainingBuild builds+profiles a probed training binary of src and
// returns its CS profile.
func runTrainingBuild(t *testing.T, src string) *profdata.Profile {
	t.Helper()
	f, err := source.Parse("fuzz.ml", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irgen.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	probe.InsertProgram(p)
	if _, err := Optimize(p, TrainingConfig()); err != nil {
		t.Fatal(err)
	}
	bin, err := codegen.Lower(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(bin, sim.DefaultCostParams(), sim.DefaultPMUConfig(16))
	m.MaxSteps = 100_000_000
	for i := int64(0); i < 12; i++ {
		if _, err := m.Run(i*13, i); err != nil {
			t.Fatal(err)
		}
	}
	prof, _ := sampling.GenerateCSSPGO(bin, m.Samples(), sampling.DefaultCSSPGOOptions())
	return prof
}

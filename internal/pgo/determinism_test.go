package pgo

import (
	"bytes"
	"testing"

	"csspgo/internal/workloads"
)

// requireDeterministic builds n times and requires byte-identical saved
// binaries every time.
func requireDeterministic(t *testing.T, n int, build func() (*BuildResult, error)) {
	t.Helper()
	var ref []byte
	for i := 0; i < n; i++ {
		res, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Bin.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("build %d: binary differs from build 0 (%d vs %d bytes)", i, buf.Len(), len(ref))
		}
	}
}

// TestProbeOnlyBuildIsDeterministic rebuilds adretriever/ProbeOnly from
// scratch 20 times. LICM used to hoist in map order, which changed the
// emitted code about one build in forty.
func TestProbeOnlyBuildIsDeterministic(t *testing.T) {
	w, err := workloads.Load("adretriever", 1)
	if err != nil {
		t.Fatal(err)
	}
	requireDeterministic(t, 20, func() (*BuildResult, error) {
		res, _, err := Pipeline(w.Files, ProbeOnly, w.Train)
		return res, err
	})
}

// TestInstrumentedBuildIsDeterministic rebuilds haas with counters 20
// times. Tail merging used to pick the first mergeable group in map order,
// which reordered blocks in most builds.
func TestInstrumentedBuildIsDeterministic(t *testing.T) {
	w, err := workloads.Load("haas", 1)
	if err != nil {
		t.Fatal(err)
	}
	requireDeterministic(t, 20, func() (*BuildResult, error) {
		return Build(w.Files, BuildConfig{Probes: true, Instrument: true})
	})
}

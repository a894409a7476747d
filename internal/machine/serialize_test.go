package machine

import (
	"bytes"
	"testing"

	"csspgo/internal/ir"
)

func TestProgGobRoundTrip(t *testing.T) {
	p := &Prog{
		Instrs: []Instr{
			{Addr: 0x1000, Size: 5, Kind: KConst, Dst: 0, Value: 7,
				Loc: &ir.Loc{Func: "main", Line: 2}},
			{Addr: 0x1005, Size: 1, Kind: KRet, A: 0},
		},
		Funcs:      []*Func{{ID: 0, Name: "main", Start: 0x1000, End: 0x1006, NumRegs: 3}},
		FuncByName: map[string]*Func{},
		GlobalInit: []int64{1, 2, 3},
		GlobalSize: 3,
		GlobalOff:  map[string]int32{"g": 0},
		Probes: []ProbeRec{{Func: "main", ID: 1, Addr: 0x1000, Factor: 1,
			InlinedAt: &ir.ProbeSite{Func: "outer", CallID: 4}}},
		Checksums: map[string]uint64{"main": 42},
		EntryAddr: 0x1000,
	}
	p.FuncByName["main"] = p.Funcs[0]
	p.Freeze()
	p.ComputeSizes()

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.InstrAt(0x1000) == nil || q.InstrAt(0x1005) == nil {
		t.Fatal("address index not rebuilt")
	}
	if q.FuncByName["main"].Start != 0x1000 {
		t.Fatal("symbol table lost")
	}
	if len(q.ProbesAt(0x1000)) != 1 {
		t.Fatal("probe index not rebuilt")
	}
	if q.Probes[0].InlinedAt == nil || q.Probes[0].InlinedAt.Func != "outer" {
		t.Fatal("probe inline chain lost")
	}
	if q.Checksums["main"] != 42 || q.TextSize != p.TextSize {
		t.Fatal("metadata lost")
	}
	if q.Instrs[0].Loc == nil || q.Instrs[0].Loc.Func != "main" {
		t.Fatal("debug info lost")
	}
}

func TestProgSaveIsDeterministic(t *testing.T) {
	p := &Prog{FuncByName: map[string]*Func{}, GlobalOff: map[string]int32{}, Checksums: map[string]uint64{}}
	for i, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		f := &Func{ID: int32(i), Name: name}
		p.Funcs = append(p.Funcs, f)
		p.FuncByName[name] = f
		p.GlobalOff[name] = int32(i)
		p.Checksums[name] = uint64(i) * 7
	}
	var ref bytes.Buffer
	if err := p.Save(&ref); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Fatalf("save %d: bytes differ", i)
		}
	}
	q, err := ReadProg(&ref)
	if err != nil {
		t.Fatal(err)
	}
	if q.FuncByName["c"] != q.Funcs[2] || q.GlobalOff["h"] != 7 || q.Checksums["d"] != 21 {
		t.Fatal("maps not rebuilt from the sorted image")
	}
}

func TestReadProgRejectsBadText(t *testing.T) {
	ok := func() *Prog {
		return &Prog{Instrs: []Instr{
			{Addr: 0x1000, Size: 5, Kind: KConst},
			{Addr: 0x1005, Size: 1, Kind: KRet, A: -1},
		}}
	}
	cases := map[string]func(p *Prog){
		"unknown kind": func(p *Prog) { p.Instrs[1].Kind = 200 },
		"wrong size":   func(p *Prog) { p.Instrs[0].Size = 9 },
		"out of order": func(p *Prog) { p.Instrs[1].Addr = 0x1000 },
		"4 GiB span":   func(p *Prog) { p.Instrs[1].Addr = 0x1000 + 1<<32 },
	}
	for name, corrupt := range cases {
		p := ok()
		corrupt(p)
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadProg(&buf); err == nil {
			t.Errorf("%s: ReadProg accepted the binary", name)
		}
	}
	var buf bytes.Buffer
	if err := ok().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProg(&buf); err != nil {
		t.Fatalf("valid binary rejected: %v", err)
	}
}

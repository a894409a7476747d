package machine

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// progImage is the serialized form of a Prog. gob writes maps in iteration
// order, so the map-valued fields travel as key-sorted slices instead (the
// same binary always saves to the same bytes) and FuncByName, which only
// indexes Funcs, is rebuilt on load.
type progImage struct {
	Prog      *Prog
	GlobalOff []namedOff
	Checksums []namedSum
}

type namedOff struct {
	Name string
	Off  int32
}

type namedSum struct {
	Func string
	Sum  uint64
}

// Save serializes the binary with gob (the reproduction's "object file
// format"). The encoding is deterministic; lookup caches are rebuilt on
// load.
func (p *Prog) Save(w io.Writer) error {
	body := *p
	body.FuncByName, body.GlobalOff, body.Checksums = nil, nil, nil
	img := progImage{Prog: &body}
	for name, off := range p.GlobalOff {
		img.GlobalOff = append(img.GlobalOff, namedOff{name, off})
	}
	sort.Slice(img.GlobalOff, func(i, j int) bool { return img.GlobalOff[i].Name < img.GlobalOff[j].Name })
	for fn, sum := range p.Checksums {
		img.Checksums = append(img.Checksums, namedSum{fn, sum})
	}
	sort.Slice(img.Checksums, func(i, j int) bool { return img.Checksums[i].Func < img.Checksums[j].Func })
	return gob.NewEncoder(w).Encode(&img)
}

// ReadProg deserializes a binary and rebuilds lookup structures.
func ReadProg(r io.Reader) (*Prog, error) {
	var img progImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, err
	}
	p := img.Prog
	if p == nil {
		p = &Prog{}
	}
	if err := p.checkText(); err != nil {
		return nil, err
	}
	p.FuncByName = make(map[string]*Func, len(p.Funcs))
	for _, f := range p.Funcs {
		p.FuncByName[f.Name] = f
	}
	p.GlobalOff = make(map[string]int32, len(img.GlobalOff))
	for _, g := range img.GlobalOff {
		p.GlobalOff[g.Name] = g.Off
	}
	p.Checksums = make(map[string]uint64, len(img.Checksums))
	for _, c := range img.Checksums {
		p.Checksums[c.Func] = c.Sum
	}
	p.Freeze()
	return p, nil
}

// checkText rejects a decoded text segment the tools cannot run: an
// unknown instruction kind, a size other than the kind's encoding,
// addresses out of order, or a span of 4 GiB or more.
func (p *Prog) checkText() error {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if int(in.Kind) >= len(kindSizes) {
			return fmt.Errorf("machine: instruction %d at %#x has unknown kind %d", i, in.Addr, in.Kind)
		}
		if in.Size != kindSizes[in.Kind] {
			return fmt.Errorf("machine: %s at %#x has size %d, want %d", in.Kind, in.Addr, in.Size, kindSizes[in.Kind])
		}
		if i > 0 && in.Addr <= p.Instrs[i-1].Addr {
			return fmt.Errorf("machine: instruction %d at %#x is not above its predecessor", i, in.Addr)
		}
	}
	if n := len(p.Instrs); n > 0 {
		if last := &p.Instrs[n-1]; last.Addr+uint64(last.Size)-p.Instrs[0].Addr >= 1<<32 {
			return fmt.Errorf("machine: text spans 4 GiB or more")
		}
	}
	return nil
}

package program_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"vca/internal/mem"
	"vca/internal/minic"
	"vca/internal/workload"
)

// TestLoadIntoMatchesFreshEncoding: for every benchmark × ABI image,
// each LoadInto (the first, which encodes the text, and a second, which
// reuses that encoding) leaves a memory image byte-identical to one
// written from a fresh little-endian encoding of the text words.
func TestLoadIntoMatchesFreshEncoding(t *testing.T) {
	images := 0
	for _, b := range workload.All() {
		for _, abi := range []minic.ABI{minic.ABIFlat, minic.ABIWindowed} {
			p, err := minic.Build(b.Name, b.Source, abi)
			if err != nil {
				t.Fatal(err)
			}
			want := mem.NewMemory()
			text := make([]byte, 4*len(p.Text))
			for i, w := range p.Text {
				binary.LittleEndian.PutUint32(text[4*i:], uint32(w))
			}
			want.WriteBytes(p.TextBase, text)
			want.WriteBytes(p.DataBase, p.Data)
			for load := 1; load <= 2; load++ {
				got := mem.NewMemory()
				p.LoadInto(got)
				if !got.EqualContents(want) {
					t.Errorf("%s/%v: load %d differs from a fresh encoding", b.Name, abi, load)
				}
			}
			images++
		}
	}
	if images != 30 {
		t.Errorf("compared %d images, want the 30 benchmark × ABI images", images)
	}
}

// TestLoadIntoConcurrent loads one fresh program from several goroutines
// at once, as parallel cells sharing a built benchmark do: under -race
// this checks that the first load's encoding is published safely, and
// every image must match.
func TestLoadIntoConcurrent(t *testing.T) {
	b, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	p, err := minic.Build(b.Name, b.Source, minic.ABIWindowed)
	if err != nil {
		t.Fatal(err)
	}
	images := make([]*mem.Memory, 4)
	var wg sync.WaitGroup
	for i := range images {
		images[i] = mem.NewMemory()
		wg.Add(1)
		go func(m *mem.Memory) {
			defer wg.Done()
			p.LoadInto(m)
		}(images[i])
	}
	wg.Wait()
	for i, m := range images[1:] {
		if !m.EqualContents(images[0]) {
			t.Errorf("concurrent load %d differs from load 0", i+1)
		}
	}
}

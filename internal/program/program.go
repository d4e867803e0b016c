// Package program defines the executable image produced by the assembler
// (and, through it, the mini-C compiler) and consumed by the functional
// emulator and the cycle-level core: a text segment of predecoded
// instructions, a data segment, an entry point, and a symbol table.
package program

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"

	"vca/internal/isa"
)

// Standard memory layout. Everything is far below the VCA register backing
// store region so program accesses and register spills can never collide.
const (
	DefaultTextBase = 0x0001_0000 // 64 KiB
	DefaultDataBase = 0x0040_0000 // 4 MiB
	StackTop        = 0x0800_0000 // 128 MiB; stacks grow down
	// RegSpaceBase is where memory-mapped logical register contexts live
	// (§2.1.1). Each hardware thread context gets a RegSpaceStride-sized
	// region: globals at the bottom, the register-window stack growing
	// down from the top.
	RegSpaceBase   = 0x4000_0000_0000
	RegSpaceStride = 0x0000_0100_0000 // 16 MiB per thread context
)

// Program is a loadable executable image.
type Program struct {
	Name     string
	TextBase uint64
	Text     []isa.Word
	DataBase uint64
	Data     []byte
	Entry    uint64
	Symbols  map[string]uint64

	// Lazily-built decode caches, shared by every machine bound to this
	// program (see Predecode and Meta). Both slices are read-only after
	// construction; Text must not be mutated once either accessor has run.
	decodeOnce sync.Once
	decoded    []isa.Inst
	meta       []isa.Meta

	// Lazily-computed content digest (see Digest); the image must not be
	// mutated once Digest has run.
	digestOnce sync.Once
	digest     string

	// Lazily-encoded little-endian text bytes (see LoadInto), shared by
	// every load; Text must not be mutated once LoadInto has run.
	textOnce  sync.Once
	textBytes []byte
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 { return p.TextBase + uint64(len(p.Text))*4 }

// InText reports whether pc falls inside the text segment and is
// word-aligned.
func (p *Program) InText(pc uint64) bool {
	return pc >= p.TextBase && pc < p.TextEnd() && pc%4 == 0
}

// WordAt returns the raw instruction word at pc, or 0 (an invalid
// instruction) when pc is outside the text segment. Out-of-text fetches
// happen naturally on mispredicted paths; they decode to isa.OpInvalid and
// are squashed before commit.
func (p *Program) WordAt(pc uint64) isa.Word {
	if !p.InText(pc) {
		return 0
	}
	return p.Text[(pc-p.TextBase)/4]
}

// InstAt decodes the instruction at pc (see WordAt for out-of-text
// behavior).
func (p *Program) InstAt(pc uint64) isa.Inst { return isa.Decode(p.WordAt(pc)) }

// Predecode decodes the entire text segment once, for simulators that want
// an indexable decoded form. The result is computed on first use and
// shared by all callers; treat it as read-only.
func (p *Program) Predecode() []isa.Inst {
	p.decodeOnce.Do(p.decode)
	return p.decoded
}

// Meta returns per-instruction predecoded operand and class metadata
// (isa.MetaOf of each text word), index-aligned with Predecode. Like
// Predecode, it is computed once and shared; treat it as read-only.
func (p *Program) Meta() []isa.Meta {
	p.decodeOnce.Do(p.decode)
	return p.meta
}

func (p *Program) decode() {
	p.decoded = make([]isa.Inst, len(p.Text))
	p.meta = make([]isa.Meta, len(p.Text))
	for i, w := range p.Text {
		inst := isa.Decode(w)
		p.decoded[i] = inst
		p.meta[i] = isa.MetaOf(inst)
	}
}

// Digest returns the content digest of the image: the hex SHA-256 of
// the text base, data base and entry point (8-byte little-endian
// each), the text words (4-byte little-endian each) and the data
// bytes. Two programs with equal digests are indistinguishable to the
// simulator, so the digest is the program-identity part of result-cache
// keys (internal/simcache) and of checkpoint validation (internal/emu).
// Like Predecode, it is computed on first use and shared.
func (p *Program) Digest() string {
	p.digestOnce.Do(func() {
		h := sha256.New()
		var buf [8]byte
		for _, v := range [...]uint64{p.TextBase, p.DataBase, p.Entry} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, w := range p.Text {
			binary.LittleEndian.PutUint32(buf[:4], uint32(w))
			h.Write(buf[:4])
		}
		h.Write(p.Data)
		p.digest = hex.EncodeToString(h.Sum(nil))
	})
	return p.digest
}

// Symbol returns the address of a label defined by the source.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// SymbolFor returns the name of the symbol covering addr (the nearest
// symbol at or below it), for diagnostics. Returns "" when none.
func (p *Program) SymbolFor(addr uint64) string {
	best, bestAddr := "", uint64(0)
	//lint:maporder argmax fold with a total tie-break (addr, then name) is order-insensitive
	for name, a := range p.Symbols {
		if a <= addr && (best == "" || a > bestAddr || (a == bestAddr && name < best)) {
			best, bestAddr = name, a
		}
	}
	if best == "" {
		return ""
	}
	if addr == bestAddr {
		return best
	}
	return fmt.Sprintf("%s+0x%x", best, addr-bestAddr)
}

// Validate performs structural sanity checks on the image.
func (p *Program) Validate() error {
	if len(p.Text) == 0 {
		return fmt.Errorf("program %q: empty text segment", p.Name)
	}
	if !p.InText(p.Entry) {
		return fmt.Errorf("program %q: entry 0x%x outside text [0x%x,0x%x)",
			p.Name, p.Entry, p.TextBase, p.TextEnd())
	}
	if p.TextBase%4 != 0 {
		return fmt.Errorf("program %q: unaligned text base 0x%x", p.Name, p.TextBase)
	}
	if p.DataBase < p.TextEnd() && len(p.Data) > 0 {
		return fmt.Errorf("program %q: data segment overlaps text", p.Name)
	}
	return nil
}

// Loader is the subset of a memory system the program loader needs.
// WriteBytes must copy data: LoadInto hands every loader the same
// encoded text, which must neither be retained nor modified.
type Loader interface {
	WriteBytes(addr uint64, data []byte)
}

// LoadInto copies both segments into a memory image. The text's
// little-endian encoding is built once per program and shared by every
// load.
func (p *Program) LoadInto(m Loader) {
	p.textOnce.Do(func() {
		p.textBytes = make([]byte, 4*len(p.Text))
		for i, w := range p.Text {
			binary.LittleEndian.PutUint32(p.textBytes[4*i:], uint32(w))
		}
	})
	m.WriteBytes(p.TextBase, p.textBytes)
	if len(p.Data) > 0 {
		m.WriteBytes(p.DataBase, p.Data)
	}
}

// Disasm renders the whole text segment with addresses and symbols, for
// debugging and the assembler CLI.
func (p *Program) Disasm() string {
	type sym struct {
		addr uint64
		name string
	}
	var syms []sym
	for n, a := range p.Symbols { //lint:maporder symbols are collected then sorted before use
		syms = append(syms, sym{a, n})
	}
	slices.SortFunc(syms, func(a, b sym) int {
		if a.addr != b.addr {
			return cmp.Compare(a.addr, b.addr)
		}
		return strings.Compare(a.name, b.name)
	})
	var out []byte
	si := 0
	for i, w := range p.Text {
		pc := p.TextBase + uint64(i)*4
		for si < len(syms) && syms[si].addr <= pc {
			if syms[si].addr == pc {
				out = append(out, fmt.Sprintf("%s:\n", syms[si].name)...)
			}
			si++
		}
		out = append(out, fmt.Sprintf("  %06x:  %s\n", pc, isa.Decode(w).DisasmAt(pc))...)
	}
	return string(out)
}

// ThreadRegSpace returns the VCA logical-register backing region for a
// hardware thread context: the global-register base pointer and the initial
// (topmost) window base pointer. Base pointers are skewed per thread by an
// odd slot count — in a real system each context's base pointer is an
// arbitrary OS-assigned address, so different contexts do not alias to the
// same rename-table sets the way stride-aligned regions would.
func ThreadRegSpace(thread int) (gbp, wbp uint64) {
	base := uint64(RegSpaceBase) + uint64(thread)*RegSpaceStride
	skew := uint64(thread) * 41 * 8
	gbp = base + skew
	wbp = base + RegSpaceStride - isa.WindowBytes - skew
	return gbp, wbp
}

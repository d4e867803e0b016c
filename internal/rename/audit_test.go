package rename

import (
	"strings"
	"testing"
)

// TestVCAInjectLeakCaught proves the conservation check has teeth at
// the substrate level: dropping a register from the free list flips
// CheckInvariants from passing to a "leaked" violation.
func TestVCAInjectLeakCaught(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	if _, _, ok := v.RenameDest(0x2000, &ops); !ok {
		t.Fatal("rename failed")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatalf("healthy renamer fails audit: %v", err)
	}
	if !v.InjectLeak() {
		t.Fatal("no free register to leak")
	}
	err := v.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("got %v, want a leak violation", err)
	}
}

// TestVCAAuditPins checks the reference-count audit against a known
// pin pattern: a renamed source holds one pin, an in-flight destination
// holds one pin (its producer's), and wrong expectations are rejected.
func TestVCAAuditPins(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	src, _, ok := v.RenameSource(0x1000, &ops)
	if !ok {
		t.Fatal("source rename failed")
	}
	d1, _, ok := v.RenameDest(0x2000, &ops)
	if !ok {
		t.Fatal("dest rename failed")
	}
	d2, prev, ok := v.RenameDest(0x2000, &ops) // in-flight overwrite of d1
	if !ok || prev != d1 {
		t.Fatalf("overwrite rename: d2=%d prev=%d ok=%v", d2, prev, ok)
	}

	ref := make([]int, 8)
	ref[src], ref[d1], ref[d2] = 1, 1, 1
	if err := v.AuditPins(ref); err != nil {
		t.Fatalf("correct expectation rejected: %v", err)
	}

	ref[src] = 2 // claim a pin that does not exist
	if err := v.AuditPins(ref); err == nil {
		t.Fatal("over-counted pin not detected")
	}
	ref[src] = 1
	ref[d1] = 0 // deny the producer's pin
	if err := v.AuditPins(ref); err == nil {
		t.Fatal("missing producer pin not detected")
	}
	ref[d1] = 1
	if err := v.AuditPins(ref[:4]); err == nil {
		t.Fatal("wrong audit length not detected")
	}
}

// TestVCAMappedAddr checks the table-consistency probe the core checker
// uses for in-flight previous versions.
func TestVCAMappedAddr(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	p, _, ok := v.RenameDest(0x3000, &ops)
	if !ok {
		t.Fatal("rename failed")
	}
	if addr, mapped := v.MappedAddr(p); !mapped || addr != 0x3000 {
		t.Fatalf("MappedAddr(%d) = %#x, %v", p, addr, mapped)
	}
	// A register still on the free list is unmapped.
	for q := 0; q < 8; q++ {
		if q == p {
			continue
		}
		if _, mapped := v.MappedAddr(q); mapped {
			continue // other registers may be mapped by setup; only p is guaranteed
		}
		return // found at least one unmapped free register
	}
	t.Fatal("expected at least one unmapped register")
}

// TestVCADuplicateLRUStampCaught proves CheckInvariants guards what
// allocPhys's register scan relies on: two mapped registers sharing an
// LRU stamp, or a mapped register without one, is rejected.
func TestVCADuplicateLRUStampCaught(t *testing.T) {
	v := newVCA(8)
	var ops []MemOp
	pa, _, _ := v.RenameDest(0x2000, &ops)
	v.CommitDest(0x2000, pa)
	pb, _, ok := v.RenameSource(0x2008, &ops)
	if !ok {
		t.Fatal("rename failed")
	}
	if err := v.CheckInvariants(); err != nil {
		t.Fatalf("healthy renamer fails audit: %v", err)
	}
	saved := v.regs[pb].lru
	v.regs[pb].lru = v.regs[pa].lru
	if err := v.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "share LRU stamp") {
		t.Fatalf("got %v, want a duplicate-stamp violation", err)
	}
	v.regs[pb].lru = 0
	if err := v.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "no LRU stamp") {
		t.Fatalf("got %v, want a missing-stamp violation", err)
	}
	v.regs[pb].lru = saved
	if err := v.CheckInvariants(); err != nil {
		t.Fatalf("restored renamer fails audit: %v", err)
	}
}

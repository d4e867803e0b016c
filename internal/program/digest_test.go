package program_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"vca/internal/minic"
	"vca/internal/program"
	"vca/internal/workload"
)

// referenceDigest is the per-call image hash that result-cache keys and
// checkpoint program_hash fields were derived with before Digest was
// memoized. Digest must stay byte-identical to it, or every stored key
// and checkpoint would silently stop matching.
func referenceDigest(p *program.Program) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], p.TextBase)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], p.DataBase)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], p.Entry)
	h.Write(buf[:])
	var word [4]byte
	for _, w := range p.Text {
		binary.LittleEndian.PutUint32(word[:], uint32(w))
		h.Write(word[:])
	}
	h.Write(p.Data)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDigestGolden pins one image's digest as a literal, so a change to
// the digest and to referenceDigest together still fails.
func TestDigestGolden(t *testing.T) {
	b, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Build(minic.ABIFlat)
	if err != nil {
		t.Fatal(err)
	}
	const want = "f95c4b9ce8b05d041f7e220ff8938f974e3bb1747467b33496070513b2f94d5e"
	if got := p.Digest(); got != want {
		t.Fatalf("crafty/flat digest %s, want %s", got, want)
	}
}

// TestDigestMatchesReference: for every benchmark × ABI image, Digest
// equals the reference hash, repeats on a second call, and is the same
// for an independent compile of the same source (workload.Build memoizes
// its images, so the rebuild goes to the compiler directly).
func TestDigestMatchesReference(t *testing.T) {
	for _, b := range workload.All() {
		for _, abi := range []minic.ABI{minic.ABIFlat, minic.ABIWindowed} {
			p, err := b.Build(abi)
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := minic.Build(b.Name, b.Source, abi)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceDigest(p)
			if got := p.Digest(); got != want {
				t.Errorf("%s/%v: Digest %s, reference %s", b.Name, abi, got, want)
			}
			if p.Digest() != want || rebuilt.Digest() != want {
				t.Errorf("%s/%v: digest not stable across calls or rebuilds", b.Name, abi)
			}
		}
	}
}

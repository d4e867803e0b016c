package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"

	"vca/internal/core"
	"vca/internal/server"
)

// cellDigest hashes everything one simulation reports: cycles, the
// committed count, each thread's program output, and the full counter
// map. Two runs with equal digests agree on every simulated statistic.
func cellDigest(res *core.Result, counters map[string]uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles %d\n", res.Cycles)
	for i, t := range res.Threads {
		fmt.Fprintf(h, "thread %d committed %d output %q\n", i, t.Committed, t.Output)
	}
	names := make([]string, 0, len(counters))
	for name := range counters { //lint:maporder names are collected then sorted before hashing
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s %d\n", name, counters[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refEntry is one cell's reference, made once by -write-refs and kept
// under refs/. Cycles and committed are there for a reader comparing a
// mismatch by eye; the digest decides.
type refEntry struct {
	Digest    string `json:"digest"`
	Cycles    uint64 `json:"cycles"`
	Committed uint64 `json:"committed"`
}

type refFile struct {
	Workload string              `json:"workload"`
	Budget   uint64              `json:"budget"`
	Cells    map[string]refEntry `json:"cells"`
}

func loadRefs(path string) (*refFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf refFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func writeRefs(path string, rf *refFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// matches reports whether a cell's result equals its reference.
func (rf *refFile) matches(cell, digest string) bool {
	ref, ok := rf.Cells[cell]
	return ok && ref.Digest == digest
}

// referenceLines encodes results exactly as the service streams them:
// one json.Encoder line per cell, by cell index.
func referenceLines(results []server.CellResult) ([][]byte, error) {
	out := make([][]byte, len(results))
	for _, r := range results {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(&r); err != nil {
			return nil, err
		}
		if r.Index < 0 || r.Index >= len(out) || out[r.Index] != nil {
			return nil, fmt.Errorf("reference results: bad cell index %d", r.Index)
		}
		out[r.Index] = b.Bytes()
	}
	return out, nil
}

// lineIndex reads the cell index a result line starts with. Every line
// begins with the embedded Cell's first field, so this avoids decoding
// the whole counter map just to place the line.
func lineIndex(line []byte) (int, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"index":`))
	if !ok {
		return 0, false
	}
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	i, err := strconv.Atoi(string(rest[:end]))
	return i, err == nil
}

// placeLines sorts one sweep's streamed lines by cell index. Lines with
// no index, an index out of range, or an index already seen count as
// failed cells, and so does every cell that got no line.
func placeLines(lines [][]byte, cells int) (byIndex [][]byte, failed int) {
	byIndex = make([][]byte, cells)
	for _, l := range lines {
		i, ok := lineIndex(l)
		if !ok || i < 0 || i >= cells || byIndex[i] != nil {
			failed++
			continue
		}
		byIndex[i] = l
	}
	for _, l := range byIndex {
		if l == nil {
			failed++
		}
	}
	return byIndex, failed
}

// streamFailures counts the cells of one streamed sweep that do not
// match ref byte for byte.
func streamFailures(lines [][]byte, ref [][]byte) int {
	byIndex, failed := placeLines(lines, len(ref))
	for i, l := range byIndex {
		if l != nil && !bytes.Equal(l, ref[i]) {
			failed++
		}
	}
	return failed
}

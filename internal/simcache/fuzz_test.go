package simcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vca/internal/core"
	"vca/internal/program"
	"vca/internal/workload"
)

// FuzzCacheEntry stores arbitrary bytes as one key's entry file and as
// a legacy index.json, then opens the directory and looks the key up.
// Open and Get must never panic, and Len counts the entry file but not
// the index; Get answers only bytes that decode to an entry whose
// checksum, key, schema and result verify, and returns exactly what
// they hold, with the counter map's encoding beside it; any other file
// is removed, counted as corrupt, and kept out of the verified view.
func FuzzCacheEntry(f *testing.F) {
	seedDir := f.TempDir()
	seed, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	b, err := workload.ByName("crafty")
	if err != nil {
		f.Fatal(err)
	}
	cfg := core.DefaultConfig(core.RenameConventional, core.WindowNone, 1, 256)
	cfg.StopAfter = 500
	cfg.MaxCycles = 1 << 34
	prog, err := b.Build(testModels[0].abi)
	if err != nil {
		f.Fatal(err)
	}
	progs := []*program.Program{prog}
	if _, _, _, err := seed.RunMachine(cfg, progs, false, nil); err != nil {
		f.Fatal(err)
	}
	key := Key(cfg, progs, false)
	entry, err := os.ReadFile(seed.entryPath(key))
	if err != nil {
		f.Fatal(err)
	}
	// The index.json sidecar older stores kept beside their entries.
	index := []byte(fmt.Sprintf(`{
 "%s": {
  "schema": %d,
  "config": "%s",
  "programs": "crafty",
  "cycles": 1234,
  "created": "2026-01-01T00:00:00Z"
 }
}`, key, core.SchemaVersion, cfg.Fingerprint()))
	flipped := append([]byte{}, entry...)
	for i := len(flipped) / 2; i < len(flipped); i++ {
		if flipped[i] >= '1' && flipped[i] <= '8' {
			flipped[i]++
			break
		}
	}
	f.Add(entry, index)
	f.Add(entry[:len(entry)/2], index[:len(index)/2])
	f.Add(flipped, []byte("{}"))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, entryBytes, indexBytes []byte) {
		path := filepath.Join(dir, key+".json")
		if err := os.WriteFile(path, entryBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "index.json"), indexBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n != 1 {
			t.Fatalf("Len = %d with one entry file beside index.json, want 1", n)
		}

		var want Entry
		verifies := json.Unmarshal(entryBytes, &want) == nil &&
			want.Key == key && want.Schema == core.SchemaVersion && want.Result != nil
		if verifies {
			sum, err := checksum(want.Result, want.Counters)
			verifies = err == nil && sum == want.Checksum
		}

		got, ok := c.Get(key)
		if ok != verifies {
			t.Fatalf("Get ok=%v, but the bytes verify=%v", ok, verifies)
		}
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("rejected entry file was not removed: %v", err)
			}
			if s := c.Stats(); s.Corrupt != 1 {
				t.Fatalf("rejected entry counted %d times as corrupt, want 1", s.Corrupt)
			}
			if inView(c, key) {
				t.Fatal("rejected entry entered the view")
			}
			return
		}
		if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Counters, want.Counters) {
			t.Fatal("Get returned something other than the verified payload")
		}
		if wantJSON, err := json.Marshal(want.Counters); err != nil || !bytes.Equal(got.CountersJSON(), wantJSON) {
			t.Fatalf("view's encoded counters %q, want json.Marshal of the verified map %q", got.CountersJSON(), wantJSON)
		}
		if again, ok := c.Get(key); !ok || again != got {
			t.Fatal("a verified entry is not answered from the view")
		}
	})
}

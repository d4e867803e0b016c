package simcache

import (
	"testing"

	"vca/internal/emu"
	"vca/internal/minic"
	"vca/internal/workload"
)

// fastCheckpoint fast-forwards one workload functionally and returns the
// checkpoint at cut instructions.
func fastCheckpoint(t *testing.T, b workload.Benchmark, m model, cut uint64) *emu.Checkpoint {
	t.Helper()
	prog, err := b.Build(m.abi)
	if err != nil {
		t.Fatal(err)
	}
	fm := emu.New(prog, emu.Config{Windowed: m.abi == minic.ABIWindowed})
	if _, err := fm.FastRun(cut); err != nil {
		t.Fatalf("FastRun(%d): %v", cut, err)
	}
	return fm.Checkpoint()
}

// TestKeyFromGolden: a run from reset, given no checkpoint slice or
// only nil entries, is keyed exactly like Key, so it shares the store
// entry of the same job run without checkpoints. A checkpointed run is
// keyed apart from it, and its hashed bytes are pinned: a change here
// re-keys every cached fast-forwarded cell.
func TestKeyFromGolden(t *testing.T) {
	b, _ := workload.ByName("crafty")
	for _, m := range []model{testModels[0], testModels[2]} {
		cfg, progs := jobFor(t, b, m)
		key := Key(cfg, progs)
		for _, cks := range [][]*emu.Checkpoint{nil, {}, {nil}, {nil, nil}} {
			if got, err := KeyFrom(cfg, progs, cks); err != nil || got != key {
				t.Errorf("%s: KeyFrom(%d nil entries) = %s (err %v), want Key %s", m.name, len(cks), got, err, key)
			}
		}
	}

	for _, g := range []struct {
		model   model
		threads int // the same program on every thread
		ckAt    int // thread whose start is checkpointed; the others start from reset
		key     string
	}{
		{testModels[0], 1, 0, "133ef6427161d0e040bc7633e6ef4cea655f16b6a1f4bc5c456c76841a91646c"},
		{testModels[2], 1, 0, "86473e31dd33f086bc98e52b7e7238f599ab8925258397e0c42cce918a0f2454"},
		{testModels[2], 2, 1, "79a9d11f02e8d94c1e270701715db0f99553d9f4e6916363b1b15cb99e0518f4"},
	} {
		cfg, progs := jobFor(t, b, g.model)
		for len(progs) < g.threads {
			progs = append(progs, progs[0])
		}
		cks := make([]*emu.Checkpoint, g.threads)
		cks[g.ckAt] = fastCheckpoint(t, b, g.model, 5000)
		got, err := KeyFrom(cfg, progs, cks)
		if err != nil {
			t.Fatal(err)
		}
		if got == Key(cfg, progs) {
			t.Errorf("%s/%d threads: checkpointed KeyFrom equals the from-reset Key", g.model.name, g.threads)
		}
		if got != g.key {
			t.Errorf("%s/%d threads: KeyFrom %s, want %s", g.model.name, g.threads, got, g.key)
		}
	}
}

// TestRunMachineCheckpointMemoizes: a detailed run started from an
// injected checkpoint is cached under a key that includes the starting
// state, hits bit-identically, and never collides with the from-reset
// key of the same configuration.
func TestRunMachineCheckpointMemoizes(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("crafty")
	m := testModels[0]
	cfg, progs := jobFor(t, b, m)
	ck := fastCheckpoint(t, b, m, 5000)
	cks := []*emu.Checkpoint{ck}

	fromKey, err := KeyFrom(cfg, progs, cks)
	if err != nil {
		t.Fatal(err)
	}
	if fromKey == Key(cfg, progs) {
		t.Fatal("KeyFrom with a checkpoint equals the from-reset key")
	}
	if nilKey, err := KeyFrom(cfg, progs, nil); err != nil || nilKey == fromKey {
		t.Fatalf("KeyFrom(nil) must differ from a checkpointed key (err %v)", err)
	}

	cold, hit, err := cache.Run(cfg, progs, cks)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first checkpointed run cannot hit")
	}
	warm, hit, err := cache.Run(cfg, progs, cks)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second checkpointed run must hit")
	}
	if got, want := resultJSON(t, warm.Result, warm.Counters), resultJSON(t, cold.Result, cold.Counters); got != want {
		t.Fatalf("checkpointed hit is not bit-identical to the cold run\ngot:  %s\nwant: %s", got, want)
	}

	// A different starting state must miss.
	other := fastCheckpoint(t, b, m, 6000)
	_, hit, err = cache.Run(cfg, progs, []*emu.Checkpoint{other})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("different checkpoint hit the cache")
	}
}

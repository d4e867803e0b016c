package core

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vca/internal/metrics"
)

func TestFingerprintStableAndComplete(t *testing.T) {
	cfg := DefaultConfig(RenameVCA, WindowVCA, 2, 128)
	fp := cfg.Fingerprint()
	if fp != cfg.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	// Every semantic knob the experiments sweep must appear by name.
	for _, want := range []string{"Threads=2", "PhysRegs=128", "Rename=1", "Window=2",
		"Width=", "ROBSize=", "StopAfter=", "VCA{", "Hier{", "BP{", "DL1Ports="} {
		if !strings.Contains(fp, want) {
			t.Errorf("fingerprint missing %q:\n%s", want, fp)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := DefaultConfig(RenameConventional, WindowNone, 1, 256)
	fp := base.Fingerprint()

	mutations := []func(*Config){
		func(c *Config) { c.PhysRegs = 192 },
		func(c *Config) { c.Threads = 2 },
		func(c *Config) { c.Width = 8 },
		func(c *Config) { c.StopAfter = 1 },
		func(c *Config) { c.MaxCycles = 7 },
		func(c *Config) { c.Hier.DL1Ports = 1 },
		func(c *Config) { c.Hier.DL1.SizeBytes = 4 << 10 },
		func(c *Config) { c.VCA.Ways = 7 },
		func(c *Config) { c.BP.RASDepth = 3 },
		func(c *Config) { c.RecoveryWalk = !c.RecoveryWalk },
		func(c *Config) { c.TrapPenalty = 99 },
	}
	for i, mutate := range mutations {
		c := base
		mutate(&c)
		if c.Fingerprint() == fp {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
}

func TestFingerprintIgnoresObservability(t *testing.T) {
	base := DefaultConfig(RenameConventional, WindowNone, 1, 256)
	fp := base.Fingerprint()

	c := base
	c.CoSim = !c.CoSim
	c.Check = true
	c.TraceWriter = &strings.Builder{}
	c.ChromeTrace = metrics.NewTraceRecorder()
	if c.Fingerprint() != fp {
		t.Error("observability-only fields changed the fingerprint")
	}
}

// goldenArchs are the five public architectures (cmd/vcasim -arch) as
// the core configures them.
var goldenArchs = []struct {
	name   string
	rename RenameModel
	window WindowModel
}{
	{"baseline", RenameConventional, WindowNone},
	{"conv-windowed", RenameConventional, WindowConventional},
	{"ideal-windowed", RenameVCA, WindowIdeal},
	{"vca-flat", RenameVCA, WindowNone},
	{"vca-windowed", RenameVCA, WindowVCA},
}

// TestFingerprintGolden pins the exact fingerprint of every
// architecture's default configuration at 256 registers, one and two
// threads. The fingerprint is hashed into every result-cache key, so a
// changed byte here orphans every entry of every persistent store; the
// golden file was recorded from the reflective encoder and has no
// update mode.
func TestFingerprintGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/fingerprint.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, fp, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = fp
	}
	if len(want) != 2*len(goldenArchs) {
		t.Fatalf("golden file has %d configs, want %d", len(want), 2*len(goldenArchs))
	}
	for _, a := range goldenArchs {
		for _, threads := range []int{1, 2} {
			name := fmt.Sprintf("%s/%d", a.name, threads)
			cfg := DefaultConfig(a.rename, a.window, threads, 256)
			if got := cfg.Fingerprint(); got != want[name] {
				t.Errorf("%s fingerprint changed\ngot:  %s\nwant: %s", name, got, want[name])
			}
		}
	}
}

// oracleFingerprint is the reflective walk Fingerprint used before the
// encoder was compiled per type: every call visits every field by
// reflection and formats it with fmt. It is the reference the compiled
// plan must reproduce byte for byte.
func oracleFingerprint(v reflect.Value, name string, top bool) string {
	var b strings.Builder
	writeOracle(&b, v, name, top)
	return b.String()
}

func writeOracle(b *strings.Builder, v reflect.Value, name string, top bool) {
	switch v.Kind() {
	case reflect.Struct:
		b.WriteString(name)
		b.WriteByte('{')
		t := v.Type()
		first := true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || (top && fingerprintSkip[f.Name]) {
				continue
			}
			if !first {
				b.WriteByte(';')
			}
			first = false
			writeOracle(b, v.Field(i), f.Name, false)
		}
		b.WriteByte('}')
	case reflect.Bool:
		fmt.Fprintf(b, "%s=%v", name, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d", name, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d", name, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%g", name, v.Float())
	case reflect.String:
		fmt.Fprintf(b, "%s=%q", name, v.String())
	case reflect.Array, reflect.Slice:
		fmt.Fprintf(b, "%s=[", name)
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			writeOracle(b, v.Index(i), fmt.Sprintf("%d", i), false)
		}
		b.WriteByte(']')
	case reflect.Map:
		keys := v.MapKeys()
		strs := make([]string, len(keys))
		for i, k := range keys {
			var kb strings.Builder
			writeOracle(&kb, v.MapIndex(k), fmt.Sprint(k.Interface()), false)
			strs[i] = kb.String()
		}
		sort.Strings(strs)
		fmt.Fprintf(b, "%s=map[%s]", name, strings.Join(strs, ","))
	default:
		panic(fmt.Sprintf("core: Config fingerprint cannot encode field %s of kind %v", name, v.Kind()))
	}
}

// TestFingerprintMatchesOracle: the compiled plan reproduces the
// reflective walk for every architecture at 64 to 256 registers, one
// and two DL1 ports, and three commit budgets, each at one and two
// threads, plus a config with every field perturbed.
func TestFingerprintMatchesOracle(t *testing.T) {
	n := 0
	for _, a := range goldenArchs {
		for _, regs := range []int{64, 128, 192, 256} {
			for _, ports := range []int{1, 2} {
				for _, stop := range []uint64{0, 600, 100000} {
					for _, threads := range []int{1, 2} {
						cfg := DefaultConfig(a.rename, a.window, threads, regs)
						cfg.Hier.DL1Ports = ports
						cfg.StopAfter = stop
						want := oracleFingerprint(reflect.ValueOf(cfg), "Config", true)
						if got := cfg.Fingerprint(); got != want {
							t.Fatalf("%s regs=%d ports=%d stop=%d threads=%d:\ngot:  %s\nwant: %s",
								a.name, regs, ports, stop, threads, got, want)
						}
						n++
					}
				}
			}
		}
	}
	if n != 5*4*2*3*2 {
		t.Fatalf("compared %d configs", n)
	}

	odd := DefaultConfig(RenameVCA, WindowVCA, 4, 1<<20)
	odd.Hier.IL1.Name = "I\"L1\n\u2028\xff"
	odd.TrapPenalty = -1
	odd.StopAfter = math.MaxUint64
	odd.RecoveryWalk = false
	if got, want := odd.Fingerprint(), oracleFingerprint(reflect.ValueOf(odd), "Config", true); got != want {
		t.Fatalf("perturbed config:\ngot:  %s\nwant: %s", got, want)
	}
}

// fpKinds holds one field of every kind the encoder supports, for
// checking the kinds Config does not use yet.
type fpKinds struct {
	B     bool
	I8    int8
	I64   int64
	U16   uint16
	U     uint
	F32   float32
	F64   float64
	S     string
	Arr   [3]int
	Sl    []uint8
	Nest  []struct{ X, Y int }
	M     map[string]int
	MI    map[int]bool
	NoFns []func() // never encoded while empty
	CoSim bool     // skipped only at the top level
	Inner struct{ CoSim bool }
	priv  int
}

// TestFingerprintKindsMatchOracle compiles a plan for fpKinds and
// compares it with the walk over ordinary, empty and extreme values.
func TestFingerprintKindsMatchOracle(t *testing.T) {
	plan := compileFingerprint(reflect.TypeOf(fpKinds{}), "Config", "Config", true)
	for i, v := range []fpKinds{
		{},
		{B: true, I8: -128, I64: math.MinInt64, U16: 65535, U: 7, F32: 0.1, F64: 1e21,
			S: "a\"b\\c\x00\u2028<>&\xfe", Arr: [3]int{1, -2, 3}, Sl: []uint8{0, 255},
			Nest: []struct{ X, Y int }{{1, 2}, {3, 4}}, M: map[string]int{"b": 2, "a": 1, "": 0},
			MI: map[int]bool{10: true, 9: false, -1: true}, NoFns: []func(){}, CoSim: true,
			Inner: struct{ CoSim bool }{true}, priv: 5},
		{F32: float32(math.Inf(1)), F64: math.NaN(), Sl: []uint8{}, M: map[string]int{}},
		{F32: -math.SmallestNonzeroFloat32, F64: math.MaxFloat64},
		{F64: math.Inf(-1)},
		{F64: 123456789, F32: 1e-7},
	} {
		want := oracleFingerprint(reflect.ValueOf(v), "Config", true)
		if got := string(plan(nil, reflect.ValueOf(v))); got != want {
			t.Errorf("value %d:\ngot:  %s\nwant: %s", i, got, want)
		}
	}

	withFn := fpKinds{NoFns: []func(){nil}}
	for name, encode := range map[string]func(){
		"oracle":  func() { oracleFingerprint(reflect.ValueOf(withFn), "Config", true) },
		"compile": func() { plan(nil, reflect.ValueOf(withFn)) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "cannot encode field") || !strings.Contains(msg, "of kind func") {
					t.Errorf("%s: a func element must panic naming its kind, got %q", name, msg)
				}
			}()
			encode()
		}()
	}
}

package core

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SchemaVersion identifies the simulator's cycle-level semantics for
// result memoization (internal/simcache). Bump it whenever a change to
// internal/core (or the components it drives: rename, mem, branch)
// alters simulated results — cycle counts, cache traffic, counter
// values — for an unchanged configuration and program. Cached results
// recorded under an older version then stop matching and are
// re-simulated instead of trusted.
//
// History:
//
//	1  PR 1 fast-path core (pooled uops, word-granular memory)
//	2  PR 2 event-counter registry (no timing change, counters added)
//	3  PR 3 invariant checker (opt-in, no timing change)
//	4  PR 4 first memoized release
//	5  PR 6 this version: StopExact commit freeze, checkpoint
//	   injection/extraction (no timing change for default configs, but
//	   Config gained a semantic field). Later, retiring Config.StopExact
//	   (now a test knob), the §2.1.2 overwrite hint and DisableRSID
//	   re-keyed every fingerprint once; no simulated result changed, so
//	   the version stayed 5.
const SchemaVersion = 5

// fingerprintSkip lists Config fields that do not influence simulated
// results and therefore must not contribute to a result-cache key:
// observability hooks (trace writers) and cross-checking switches that
// only verify — never alter — the simulation.
var fingerprintSkip = map[string]bool{
	"TraceWriter": true,
	"ChromeTrace": true,
	"CoSim":       true,
	"Check":       true,
}

// Fingerprint returns a canonical, human-readable encoding of every
// semantic configuration field, suitable for content-addressing
// simulation results. Two configs with equal fingerprints produce
// bit-identical runs on the same programs (given equal SchemaVersion).
//
// The encoding is derived from the struct's type, so a newly added
// field changes the fingerprint automatically (safe direction: stale
// cache entries are invalidated, never wrongly reused). Fields listed
// in fingerprintSkip are observability-only and excluded. A field of a
// kind the encoder does not understand panics, forcing an explicit
// decision when one is introduced.
func (c *Config) Fingerprint() string {
	return string(c.AppendFingerprint(make([]byte, 0, 1024)))
}

// AppendFingerprint appends c's fingerprint to b. Result-cache keys
// hash it in place, without materialising the string.
func (c *Config) AppendFingerprint(b []byte) []byte {
	return configPlan()(b, reflect.ValueOf(c).Elem())
}

// fpEncoder appends the fingerprint of v, a value of the type the
// encoder was compiled for, including the field name and separator
// that precede it.
type fpEncoder func(b []byte, v reflect.Value) []byte

// configPlan is Config's encoder, compiled from its type on first use:
// every field's name, separator and braces become literal text, and
// only values are read per call.
var configPlan = sync.OnceValue(func() fpEncoder {
	return compileFingerprint(reflect.TypeOf(Config{}), "Config", "Config", true)
})

// compileFingerprint builds the encoder of type t. lit is the text that
// precedes the value (separator and field name), label names the field
// in a panic, and top marks Config itself, the only struct whose
// fingerprintSkip fields are left out. The output format is
// name{a=1;b=true;s="q"}, name=[0=1,1=2] for arrays and slices, and
// name=map[k=v,...] with entries sorted for maps. A value of any other
// kind panics when it is encoded.
func compileFingerprint(t reflect.Type, lit, label string, top bool) fpEncoder {
	switch t.Kind() {
	case reflect.Struct:
		type field struct {
			index int
			enc   fpEncoder
		}
		var fields []field
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || (top && fingerprintSkip[f.Name]) {
				continue
			}
			sep := ";"
			if len(fields) == 0 {
				sep = ""
			}
			fields = append(fields, field{i, compileFingerprint(f.Type, sep+f.Name, f.Name, false)})
		}
		open := lit + "{"
		return func(b []byte, v reflect.Value) []byte {
			b = append(b, open...)
			for _, f := range fields {
				b = f.enc(b, v.Field(f.index))
			}
			return append(b, '}')
		}
	case reflect.Bool:
		lit += "="
		return func(b []byte, v reflect.Value) []byte {
			return strconv.AppendBool(append(b, lit...), v.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		lit += "="
		return func(b []byte, v reflect.Value) []byte {
			return strconv.AppendInt(append(b, lit...), v.Int(), 10)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		lit += "="
		return func(b []byte, v reflect.Value) []byte {
			return strconv.AppendUint(append(b, lit...), v.Uint(), 10)
		}
	case reflect.Float32, reflect.Float64:
		lit += "="
		return func(b []byte, v reflect.Value) []byte {
			return strconv.AppendFloat(append(b, lit...), v.Float(), 'g', -1, 64)
		}
	case reflect.String:
		lit += "="
		return func(b []byte, v reflect.Value) []byte {
			return strconv.AppendQuote(append(b, lit...), v.String())
		}
	case reflect.Array, reflect.Slice:
		// Elements are named by their index, so the element encoder
		// carries no name of its own.
		elem := compileFingerprint(t.Elem(), "", label+" element", false)
		lit += "=["
		return func(b []byte, v reflect.Value) []byte {
			b = append(b, lit...)
			for i := 0; i < v.Len(); i++ {
				if i > 0 {
					b = append(b, ',')
				}
				b = elem(strconv.AppendInt(b, int64(i), 10), v.Index(i))
			}
			return append(b, ']')
		}
	case reflect.Map:
		elem := compileFingerprint(t.Elem(), "", label+" element", false)
		lit += "=map["
		return func(b []byte, v reflect.Value) []byte {
			keys := v.MapKeys()
			entries := make([]string, len(keys))
			for i, k := range keys {
				entries[i] = string(elem([]byte(fmt.Sprint(k.Interface())), v.MapIndex(k)))
			}
			sort.Strings(entries)
			b = append(b, lit...)
			b = append(b, strings.Join(entries, ",")...)
			return append(b, ']')
		}
	default:
		kind := t.Kind()
		return func([]byte, reflect.Value) []byte {
			panic(fmt.Sprintf("core: Config fingerprint cannot encode field %s of kind %v; "+
				"add it to fingerprintSkip if it cannot affect results, or teach "+
				"compileFingerprint the kind", label, kind))
		}
	}
}

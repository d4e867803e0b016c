package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckFlags pins which flag combinations the command rejects (exit
// 2) before running anything.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" means accepted
	}{
		{[]string{"-fig4"}, ""},
		{[]string{"-fig4", "-cache=false"}, ""},
		{[]string{"-cacheclear"}, ""},
		{[]string{"-fig4", "-cachedir", "d", "-cachestats", "s.json"}, ""},
		{[]string{"-counterpoint", "-predicates", "p", "-cpreport", "r.json"}, ""},
		{[]string{"-sweep", "2", "-sweepseed", "3"}, ""},
		{[]string{"-sweep", "2", "-counterpoint"}, "mutually exclusive"},
		{[]string{"-fig4", "-predicates", "p"}, "require -counterpoint"},
		{[]string{"-fig4", "-cpreport", "r.json"}, "require -counterpoint"},
		{[]string{"-cache=false", "-cacheclear"}, "require -cache"},
		{[]string{"-cache=false", "-fig4", "-stop", "2000", "-cachestats", "f.json"}, "require -cache"},
		{[]string{"-cache=false", "-fig4", "-cachedir", "d"}, "require -cache"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			err := checkFlags(parseFlags(t, c.args))
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q, want it to contain %q", err, c.want)
			}
		})
	}
}

// TestNeedsCache pins which runs open the result cache (and so create
// its directory): the figures and the store's own flags do, the runs
// that never simulate through it do not.
func TestNeedsCache(t *testing.T) {
	cases := []struct {
		args []string
		want bool
	}{
		{[]string{"-all"}, true},
		{[]string{"-fig4"}, true},
		{[]string{"-fig5", "-cachedir", "d"}, true},
		{[]string{"-fig6"}, true},
		{[]string{"-fig7"}, true},
		{[]string{"-fig8"}, true},
		{[]string{"-cacheclear"}, true},
		{[]string{"-sweep", "1", "-cachestats", "s.json"}, true},
		{[]string{"-table1"}, false},
		{[]string{"-table2"}, false},
		{[]string{"-table1", "-table2", "-cachedir", "d"}, false},
		{[]string{"-sweep", "1"}, false},
		{[]string{"-counterpoint"}, false},
		{[]string{"-counterpoint", "-sweepseed", "3", "-cpreport", "r.json"}, false},
		{[]string{"-fig4", "-cache=false"}, false},
		{[]string{"-all", "-cache=false"}, false},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			parseFlags(t, c.args)
			if got := needsCache(); got != c.want {
				t.Errorf("needsCache() = %v, want %v", got, c.want)
			}
		})
	}
}

// parseFlags resets every flag of the command to its default and parses
// args into a fresh FlagSet that shares the command's flag variables, so
// that Visit reports only the flags in args.
func parseFlags(t *testing.T, args []string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("reset -%s: %v", f.Name, err)
		}
		fs.Var(f.Value, f.Name, f.Usage)
	})
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return fs
}

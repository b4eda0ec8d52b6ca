package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"bayestree/internal/proxy"
	"bayestree/internal/serve"
)

// parse runs a command line through the command's real flag set.
func parse(args string) (*options, error) {
	fs := flag.NewFlagSet("serveproxy", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := register(fs)
	return o, fs.Parse(strings.Fields(args))
}

// TestCommandLines: groups parse into the proxy's configuration, a
// malformed one is refused by the flag set, and a missing group or a
// stray argument is a usage error (exit status 2).
func TestCommandLines(t *testing.T) {
	o, err := parse("-group http://p0:8080/,http://r0:8081 -group https://p1:8090// -read-timeout 3s")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := o.config(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []proxy.Group{
		{Primary: "http://p0:8080", Replicas: []string{"http://r0:8081"}},
		{Primary: "https://p1:8090", Replicas: []string{}},
	}
	if !reflect.DeepEqual(cfg.Groups, want) {
		t.Errorf("groups %+v, want %+v", cfg.Groups, want)
	}
	if cfg.ReadTimeout.Seconds() != 3 || cfg.DefaultBudget != 32 || cfg.WriteRetries != 8 {
		t.Errorf("config %+v: flags did not land in their fields", cfg)
	}

	// The flag set is exactly these ten: the read path has no switch, so
	// the two flags that tuned the deleted second one are unknown.
	fs := flag.NewFlagSet("serveproxy", flag.ContinueOnError)
	register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if want := []string{"addr", "budget", "drain", "group", "max-budget", "max-staleness",
		"probe-every", "read-timeout", "write-retries", "write-timeout"}; !reflect.DeepEqual(names, want) {
		t.Errorf("flags %v, want %v", names, want)
	}

	// Refused by the flag set itself: a URL without a scheme, an empty
	// group, and an unknown flag.
	for _, args := range []string{
		"-group p0:8080",
		"-group http://p0:8080,r0:8081",
		"-group ,",
		"-group http://p0:8080 -nosuch",
	} {
		if _, err := parse(args); err == nil {
			t.Errorf("%s: parsed, want an error", args)
		}
	}

	for args, rest := range map[string][]string{
		"":                      nil,
		"-addr :9000":           nil,
		"-group http://p0:8080": {"stray"},
	} {
		o, err := parse(args)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		if _, err := o.config(rest); serve.ExitStatus(err) != 2 {
			t.Errorf("%q %v: err %v; want a usage error", args, rest, err)
		}
	}
}

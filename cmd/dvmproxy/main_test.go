package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dvm/internal/compiler"
	"dvm/internal/eval"
	"dvm/internal/rewrite"
	"dvm/internal/workload"
)

// TestRootServesTheMeasuredPipeline: dvmproxy run with the evaluation's
// policy composes, flag by flag, the pipeline the benchmark measures
// (eval.ServicePipeline with that policy and the compile step), so what
// the bench times is what a deployment serves — byte for byte, for the
// compiled and the plain architecture, over the workload corpus.
func TestRootServesTheMeasuredPipeline(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "policy.xml")
	if err := os.WriteFile(policy, []byte(eval.StandardPolicyXML), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := compose([]string{"-origin", t.TempDir(), "-policy", policy}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	served, measured := s.proxy.Pipeline, eval.ServicePipeline(eval.StandardPolicy(), true)
	classes := 0
	for _, spec := range workload.Benchmarks() {
		app, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		for name, raw := range app.Classes {
			for _, arch := range []string{compiler.ArchDVM, "jvm"} {
				run := func(p *rewrite.Pipeline) []byte {
					ctx := rewrite.NewContext()
					ctx.ClientArch = arch
					out, err := p.Process(raw, ctx)
					if err != nil {
						t.Fatalf("%s (%s): %v", name, arch, err)
					}
					return out
				}
				if !bytes.Equal(run(served), run(measured)) {
					t.Errorf("%s (%s): dvmproxy's pipeline and eval.ServicePipeline disagree", name, arch)
				}
			}
			classes++
		}
	}
	if classes == 0 {
		t.Fatal("empty corpus")
	}
}

// TestRootFlags pins dvmproxy's flag set: the settings a deployment makes.
// Everything else is a package default or a constant of the root.
func TestRootFlags(t *testing.T) {
	var usage bytes.Buffer
	if _, err := compose([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	want := []string{
		"addr", "origin", "policy", "disk-cache", "audit-log", "self", "peers", "attest-key",
		"no-cache", "cache-ttl", "no-compile",
		"fetch-timeout", "retries", "breaker-threshold",
		"replication", "hot-threshold", "attest-quorum",
		"max-queue", "queue-deadline",
		"stats-interval",
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flags:\n got  %v\n want %v", got, want)
	}
	// A removed flag is an undefined one: compose fails, so main exits 2.
	var stderr bytes.Buffer
	if _, err := compose([]string{"-origin", "o", "-aot-base-arch", "jvm"}, &stderr); err == nil ||
		!strings.Contains(stderr.String(), "flag provided but not defined: -aot-base-arch") {
		t.Errorf("-aot-base-arch: err = %v, stderr %q; want it refused as undefined", err, stderr.String())
	}
}

// TestRootRefusesIgnoredSettings: a flag the root would silently ignore
// is refused with a message that names both flags of the pair.
func TestRootRefusesIgnoredSettings(t *testing.T) {
	for _, args := range [][]string{
		{"-no-cache", "-disk-cache", "d"},
		{"-no-cache", "-cache-ttl", "1m"},
		{"-peers", "http://a:1"},
	} {
		var stderr bytes.Buffer
		if _, err := compose(append([]string{"-origin", "o"}, args...), &stderr); err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-") && !strings.Contains(stderr.String(), a) {
				t.Errorf("%v: message %q does not name %s", args, stderr.String(), a)
			}
		}
	}
	if _, err := compose([]string{"-origin", "o", "-no-cache", "-cache-ttl", "0"}, os.Stderr); err != nil {
		t.Errorf("-cache-ttl 0 (the default) with -no-cache: %v", err)
	}
}

package cli_test

// Fuzz coverage for the user-facing parsers: whatever bytes arrive on the
// command line, the parsers must never panic, never return a non-positive
// or overflowed size, and never build a topology that disagrees with its
// own spec. Seed corpora live under testdata/fuzz and run as ordinary
// tests; CI additionally runs each target under a short -fuzz budget.

import (
	"strconv"
	"strings"
	"testing"

	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
)

// maxFuzzNPUs bounds the topologies the fuzzer is allowed to construct,
// so exploration stays in parse logic rather than allocating giant node
// arrays.
const maxFuzzNPUs = 1 << 14

// specIsCheap reports whether every integer in a topology spec is small
// enough that building it is safe under the fuzzer.
func specIsCheap(spec string) bool {
	product := 1
	for _, run := range strings.FieldsFunc(spec, func(r rune) bool { return r < '0' || r > '9' }) {
		v, err := strconv.Atoi(run)
		if err != nil || v > maxFuzzNPUs {
			return false
		}
		if v > 0 {
			product *= v
			if product > maxFuzzNPUs {
				return false
			}
		}
	}
	return true
}

func FuzzParseConfig(f *testing.F) {
	f.Add("4MB", "4x4x4")
	f.Add("1kb, 2mb ,3gb", "2x2x2x2")
	f.Add("0", "a2a:2x4")
	f.Add("-7MB", "sw:4x2")
	f.Add("9223372036854775807B", "so:2x2x1/2")
	f.Add("10000000000GB", "1x8")
	f.Add("", "8")
	f.Add("4MB,,8MB", "0x4")
	f.Add("64", "2x-3")
	f.Add(" 12 KB ", "a2a:1x1")
	f.Fuzz(func(t *testing.T, sizeSpec, topoSpec string) {
		if v, err := cli.ParseSize(sizeSpec); err == nil {
			if v <= 0 {
				t.Fatalf("ParseSize(%q) = %d, accepted a non-positive size", sizeSpec, v)
			}
		}
		if sizes, tokens, err := cli.ParseSizeList(sizeSpec); err == nil {
			if len(sizes) != len(tokens) || len(sizes) == 0 {
				t.Fatalf("ParseSizeList(%q): %d sizes for %d tokens", sizeSpec, len(sizes), len(tokens))
			}
			for i, v := range sizes {
				if v <= 0 {
					t.Fatalf("ParseSizeList(%q): entry %d = %d", sizeSpec, i+1, v)
				}
				if tokens[i] != strings.TrimSpace(tokens[i]) || tokens[i] == "" {
					t.Fatalf("ParseSizeList(%q): token %d = %q not trimmed", sizeSpec, i+1, tokens[i])
				}
			}
		}
		if dims, err := cli.ParseDims(topoSpec); err == nil {
			for _, d := range dims {
				if d <= 0 {
					t.Fatalf("ParseDims(%q) accepted dimension %d", topoSpec, d)
				}
			}
		}
		if !specIsCheap(topoSpec) {
			return
		}
		cfg := config.DefaultSystem()
		topo, err := cli.BuildTopology(topoSpec, cli.DefaultTopologyOptions(), &cfg)
		if err != nil {
			return
		}
		if n := topo.NumNPUs(); n < 1 {
			t.Fatalf("BuildTopology(%q): %d NPUs", topoSpec, n)
		}
		if topo.Name() == "" {
			t.Fatalf("BuildTopology(%q): empty name", topoSpec)
		}
	})
}

// FuzzParseHierTopology drives the hier: composition grammar end to end:
// parse the dimension list, build the topology, and compile a small
// all-reduce over it. Accepted specs must build consistently (NPU count
// = product of dimension sizes, one DimInfo per spec) and compile into
// phases whose step algebra holds its invariants (positive steps, ring /
// direct / halving mutually consistent, per-step bytes non-negative).
func FuzzParseHierTopology(f *testing.F) {
	f.Add("sw8,fc4,ring32")
	f.Add("ring2,ring4,ring2")
	f.Add("sw4x2@local,fc3x1@pkg,ring4@so")
	f.Add("fc4,ring2x1,sw2")
	f.Add("ring1")
	f.Add("sw16")
	f.Add("fc2@so")
	f.Add("ring8x3")
	f.Add("")
	f.Add("sw0")
	f.Add("ring2,,sw4")
	f.Add("mesh4")
	f.Add("sw8@fabric")
	f.Add("ring-2")
	f.Add("sw8xx2")
	f.Add("ring2 , sw4")
	f.Fuzz(func(t *testing.T, spec string) {
		if !specIsCheap(spec) {
			return
		}
		specs, err := cli.ParseHierSpec(spec, cli.DefaultTopologyOptions())
		if err != nil {
			return
		}
		cfg := config.DefaultSystem()
		topo, err := cli.BuildTopology("hier:"+spec, cli.DefaultTopologyOptions(), &cfg)
		if err != nil {
			t.Fatalf("ParseHierSpec(%q) accepted but BuildTopology rejected: %v", spec, err)
		}
		want := 1
		for _, s := range specs {
			if s.Size < 1 || s.Lanes < 1 {
				t.Fatalf("ParseHierSpec(%q) accepted dim %v", spec, s)
			}
			want *= s.Size
		}
		if got := topo.NumNPUs(); got != want {
			t.Fatalf("BuildTopology(hier:%q): %d NPUs, spec product %d", spec, got, want)
		}
		dims := topo.Dims()
		if len(dims) != len(specs) {
			t.Fatalf("BuildTopology(hier:%q): %d dims for %d specs", spec, len(dims), len(specs))
		}
		for i, d := range dims {
			if d.Size != specs[i].Size {
				t.Fatalf("BuildTopology(hier:%q): dim %d size %d, spec %d", spec, i, d.Size, specs[i].Size)
			}
			if d.Halving && !d.Direct {
				t.Fatalf("BuildTopology(hier:%q): dim %d halving without direct reachability", spec, i)
			}
		}
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			phases, err := collectives.Compile(collectives.AllReduce, topo, alg)
			if err != nil {
				t.Fatalf("Compile(allreduce, hier:%q, %v): %v", spec, alg, err)
			}
			const setBytes = 4096
			for _, ph := range phases {
				if ph.Size < 2 {
					t.Fatalf("hier:%q %v: compiled phase over %d nodes", spec, alg, ph.Size)
				}
				if ph.Direct && ph.Halving {
					t.Fatalf("hier:%q %v: phase %v is both direct and halving", spec, alg, ph)
				}
				steps := ph.NumSteps()
				if steps < 1 {
					t.Fatalf("hier:%q %v: phase %v has %d steps", spec, alg, ph, steps)
				}
				for s := 0; s < steps; s++ {
					if b := ph.StepBytes(s, setBytes); b < 0 {
						t.Fatalf("hier:%q %v: phase %v step %d sends %d bytes", spec, alg, ph, s, b)
					}
				}
			}
			if total := collectives.TotalCollectiveBytesPerNode(phases, setBytes); total < 0 {
				t.Fatalf("hier:%q %v: negative per-node total %d", spec, alg, total)
			}
		}
	})
}

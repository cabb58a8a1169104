package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/leakcheck"
)

// tiny sizes every workload down so a test run takes about a second.
var tinyArgs = []string{"-seconds", "0.4", "-domains", "400", "-setups", "1"}

var workloads = []string{"crawl", "analyze", "serve"}

type benchFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPrintedMetricsMatchBenchmarkJSON runs the command on every
// workload in both modes and checks the printed names and units against
// BENCHMARK.json, and that every output check passed.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	f := readBenchFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	want := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range f.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, tr := range []int{0, 1} {
			t.Run(w+"/trace"+strconv.Itoa(tr), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := append([]string{"-workload", w, "-seed", "3", "-trace", strconv.Itoa(tr), "-workdir", t.TempDir()}, tinyArgs...)
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want[tr]) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want[tr]))
				}
				for name, unit := range want[tr] {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", name, m, ok, unit)
					}
				}
			})
		}
	}
}

// TestTracingKeepsOutputsAndCleansUp measures every workload untraced
// and traced on one set-up: the checked outputs must be identical, the
// run must return with no goroutine left and no listener accepting.
func TestTracingKeepsOutputsAndCleansUp(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			leakcheck.Check(t)
			var addrs []string
			o := options{workload: w, seed: 5, seconds: 0.4, domains: 400, setups: 1,
				workdir: t.TempDir(), onListen: func(a string) { addrs = append(addrs, a) }}
			b, err := newBench(o, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := b.setup(ctx); err != nil {
				t.Fatal(err)
			}
			plain, err := b.measure(ctx, o.seconds, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := b.measure(ctx, o.seconds, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*pass{plain, traced} {
				if p.checkErr != nil {
					t.Fatalf("output check: %v", p.checkErr)
				}
			}
			if plain.output == 0 || plain.output != traced.output {
				t.Errorf("untraced output %x, traced %x", plain.output, traced.output)
			}
			if len(traced.spans) == 0 || len(plain.spans) != 0 {
				t.Errorf("spans: untraced %d, traced %d", len(plain.spans), len(traced.spans))
			}
			if w != "analyze" && len(addrs) == 0 {
				t.Error("no listener reported")
			}
			for _, a := range addrs {
				if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
					c.Close()
					t.Errorf("%s still accepts connections", a)
				}
			}
		})
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}

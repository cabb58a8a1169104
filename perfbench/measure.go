package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/pagecache"
)

// resetPeakRSS restarts the kernel's peak-resident-set count for this
// process (Linux clear_refs 5).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads this process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// installRegistry points the packages whose counters the ledger reads
// at a fresh registry, so one pass's counts start from zero.
func installRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	dataset.InitMetrics(reg)
	crawler.InitMetrics(reg)
	overload.InitMetrics(reg)
	pagecache.InitMetrics(reg)
	return reg
}

// sumFamily adds up every series of a counter or gauge family in reg's
// exposition.
func sumFamily(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return 0
	}
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// stackLayers reads the page-cache and overload-gate counters of one
// pass.
func stackLayers(reg *obs.Registry, layers map[string]float64) {
	hits, misses := sumFamily(reg, "pagecache_hits_total"), sumFamily(reg, "pagecache_misses_total")
	if hits+misses > 0 {
		layers["pagecache.hit_ratio"] = hits / (hits + misses)
	}
	layers["pagecache.evictions"] = sumFamily(reg, "pagecache_evictions_total")
	// The gate's histogram resolves waits only to its buckets (the first
	// ends at 1ms), and Quantile interpolates within a bucket.
	layers["overload.queue_wait_p99_ms"] = reg.Histogram("overload_queue_wait_seconds", "", nil).Quantile(0.99) * 1e3
	layers["overload.shed"] = sumFamily(reg, "overload_shed_total")
}

// runtimeMeter measures the Go runtime over a traced pass: GC cycles and
// pause time, peak live heap (sampled), and scheduling latency.
type runtimeMeter struct {
	ms0    runtime.MemStats
	sched0 *metrics.Float64Histogram
	peak   atomic.Uint64
	quit   chan struct{}
	done   chan struct{}
}

const (
	heapMetric  = "/memory/classes/heap/objects:bytes"
	schedMetric = "/sched/latencies:seconds"
)

func startRuntimeMeter() *runtimeMeter {
	m := &runtimeMeter{quit: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.ms0)
	m.sched0 = readHist(schedMetric)
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > m.peak.Load() {
				m.peak.Store(v)
			}
			select {
			case <-m.quit:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *runtimeMeter) stop() map[string]float64 {
	close(m.quit)
	<-m.done
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	return map[string]float64{
		"runtime.gc_cycles":            float64(ms1.NumGC - m.ms0.NumGC),
		"runtime.gc_pause_ms":          float64(ms1.PauseTotalNs-m.ms0.PauseTotalNs) / 1e6,
		"runtime.heap_peak_mb":         float64(m.peak.Load()) / (1 << 20),
		"runtime.sched_latency_p99_ms": histQuantile(m.sched0, readHist(schedMetric), 0.99) * 1e3,
	}
}

func readHist(name string) *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s[0].Value.Float64Histogram()
}

// histQuantile is the q-quantile of the observations added between two
// readings of a cumulative runtime histogram, reported as the upper
// bound of the bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q*float64(total) + 0.5)
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank && c > 0 {
			hi := after.Buckets[i+1]
			if hi > 1e300 {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// allocs reads the process's cumulative heap allocation counts.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

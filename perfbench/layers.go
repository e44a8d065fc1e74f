package main

import (
	"runtime/metrics"
	"strings"
)

// Layers, bottom to top. goruntime is the Go runtime (scheduler,
// channels, GC, allocator), os the system-call path, and other the
// benchmark itself plus standard-library code no layer called.
var layers = []string{
	"sim", "am", "splitc", "apps", "run", "exp", "service",
	"depgraph", "tolerance", "goruntime", "http", "json", "os", "other",
}

// paperApps and scaleKernels name the apps.<app>.run_ms metrics.
var (
	paperApps    = []string{"radix", "em3d-write", "em3d-read", "sample", "barnes", "pray", "connect", "murphi", "nowsort", "radb"}
	scaleKernels = []string{"scale-radix", "scale-em3d", "scale-pray"}
)

// serveOnly names the metrics (by prefix) of the service, the analytic
// engine's counters and the serve clients, which only serve reaches.
var serveOnly = []string{"service.", "serve.", "http.client_self_p50_us", "tolerance.breakpoints", "hit_p", "cold_p", "analytic_"}

// runMs names the apps.<app>.run_ms metrics of the given apps.
func runMs(groups ...[]string) []string {
	var names []string
	for _, g := range groups {
		for _, a := range g {
			names = append(names, "apps."+a+".run_ms")
		}
	}
	return names
}

// notReached reports whether a per-layer metric belongs to a layer the
// workload never calls, or is not measured on it: such a metric is
// reported as 0. Every other metric must be produced by the pass.
func notReached(w workload, metric string) bool {
	for _, p := range w.unreached() {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

// layerOf maps an import path to its layer.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		switch top {
		case "sim", "am", "splitc", "apps", "run", "exp", "service", "depgraph", "tolerance":
			return top
		}
		return "other"
	}
	switch {
	case pkg == "syscall", pkg == "internal/poll", pkg == "os", pkg == "internal/runtime/syscall":
		return "os"
	case pkg == "runtime", strings.HasPrefix(pkg, "internal/runtime/"), strings.HasPrefix(pkg, "runtime/internal/"),
		strings.HasPrefix(pkg, "gcWriteBarrier"):
		return "goruntime"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "bufio":
		return "http"
	}
	return "other"
}

// layerOfStack charges a sample to the layer of its innermost frame;
// when that frame is in a package no layer owns (sort, reflect,
// strconv, crypto/sha256, or repro's own helpers such as logp and
// core), to the nearest caller that a layer owns.
func layerOfStack(frames []string) string {
	for _, f := range frames {
		if l := layerOf(packageOf(f)); l != "other" {
			return l
		}
	}
	return "other"
}

// cpuShares returns each layer's share of a profile's CPU time, and the
// leaf packages' shares.
func cpuShares(samples []cpuSample) (byLayer, byPkg map[string]float64) {
	byLayer, byPkg = map[string]float64{}, map[string]float64{}
	for _, l := range layers {
		byLayer[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.ns
	}
	if total <= 0 {
		return byLayer, byPkg
	}
	for _, s := range samples {
		share := float64(s.ns) / float64(total)
		byLayer[layerOfStack(s.frames)] += share
		leaf := "?"
		if len(s.frames) > 0 {
			leaf = packageOf(s.frames[0])
		}
		byPkg[leaf] += share
	}
	return byLayer, byPkg
}

// runtimeSnap is a runtime/metrics reading.
type runtimeSnap []metrics.Sample

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func (s runtimeSnap) value(i int) float64 {
	switch s[i].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[i].Value.Uint64())
	case metrics.KindFloat64:
		return s[i].Value.Float64()
	}
	return 0
}

// deltaInto stores the runtime's allocation and GC figures between two
// readings: bytes and objects allocated, and GC's share of the CPU time
// the process used (idle time excluded).
func (s runtimeSnap) deltaInto(before runtimeSnap, out map[string]float64) {
	d := func(i int) float64 { return s.value(i) - before.value(i) }
	out["goruntime.alloc_bytes"] = d(0)
	out["goruntime.alloc_objects"] = d(1)
	if used := d(3) - d(4); used > 0 {
		out["goruntime.gc_cpu_frac"] = d(2) / used
	}
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

type metricDef struct{ name, unit string }

// perLayer is every metric a traced run prints, on every workload. A
// metric of a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"client.get.self_ms", "ms"},
	{"client.region.self_ms", "ms"},
	{"client.http_ms", "ms"},
	{"client.retries", "count"},
	{"router.self_ms", "ms"},
	{"router.leg_ms", "ms"},
	{"router.legs_per_get", "count"},
	{"router.legs_per_put", "count"},
	{"router.legs_per_list", "count"},
	{"router.list_bytes", "B"},
	{"router.shed", "count"},
	{"router.errored", "count"},
	{"router.repairs_scheduled", "count"},
	{"node.self_ms", "ms"},
	{"node.cache_hit_ratio", "ratio"},
	{"node.coalesced", "count"},
	{"node.shed", "count"},
	{"tileserver.get.self_ms", "ms"},
	{"tileserver.put.self_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.keys_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.reads_per_get", "count"},
	{"store.bytes_read_per_op", "B"},
	{"store.bytes_written_per_user_byte", "ratio"},
	{"ingest.submit_ms", "ms"},
	{"ingest.stage.validate.mean_ms", "ms"},
	{"ingest.stage.screen.mean_ms", "ms"},
	{"ingest.stage.fuse.mean_ms", "ms"},
	{"ingest.stage.commit.mean_ms", "ms"},
	{"ingest.stage.publish.mean_ms", "ms"},
	{"ingest.accept_ratio", "ratio"},
	{"ingest.quarantined.malformed", "count"},
	{"ingest.quarantined.stale", "count"},
	{"ingest.quarantined.duplicate", "count"},
	{"ingest.quarantined.byzantine", "count"},
	{"ingest.quarantined.shed", "count"},
	{"ingest.quarantined.overload", "count"},
	{"ingest.quarantined.panic", "count"},
	{"ingest.publish.tiles_per_commit", "count"},
	{"ingest.publish.bytes_per_report", "B"},
	{"ingest.versions.bytes_per_commit", "B"},
	{"loc.evals_per_step", "count"},
	{"loc.ns_per_eval", "ns"},
	{"loc.err_m", "m"},
	{"sensors.detect_ms", "ms"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_peak", "count"},
	{"setup.worldgen_s", "s"},
	{"setup.publish_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ms", "ms"},
	{"attr.client_ms", "ms"},
	{"attr.http_ms", "ms"},
	{"attr.router_ms", "ms"},
	{"attr.leg_ms", "ms"},
	{"attr.node_ms", "ms"},
	{"attr.tileserver_ms", "ms"},
	{"attr.store_ms", "ms"},
	{"put_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"op_samples", "count"},
	{"fail_ratio", "ratio"},
}

func hostFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		Seed:       seed,
		Revision:   "unknown",
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			fp.Revision = rev
			if dirty {
				fp.Revision += "-dirty"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/loadgen"
	"repro/internal/platform"
)

// E21Config sizes the offered-load sweep.
type E21Config struct {
	// Rates is the offered arrival-rate sweep (req/s). The sweep should
	// straddle the node's capacity: early cells measure pre-saturation
	// latency, late cells measure overload behaviour.
	Rates []float64
	// Duration is the measured span per cell.
	Duration time.Duration
	// Users is the synthetic population per cell.
	Users int
	// SeedArticles seeds the article pool per cell.
	SeedArticles int
	// WritePerCore and ReadPerCore provision the node's static route
	// ceilings (writes: POST /v1/tx and POST /v1/blobs; reads:
	// GET /v1/search and GET /v1/blobs/{cid}), in requests/second per
	// core. This is the operator half of admission control: ceilings
	// set from measured capacity, refusing the firehose with cheap 429s
	// before it consumes serving CPU, so accepted requests keep seeing
	// an un-saturated node. The adaptive gates remain the backstop.
	WritePerCore float64
	ReadPerCore  float64
	Seed         int64
}

// DefaultE21 returns the standard configuration. Rates are sized for a
// small container: the last cells push well past what one core serves.
func DefaultE21() E21Config {
	return E21Config{
		Rates:        []float64{200, 600, 1200, 2400, 4800},
		Duration:     4 * time.Second,
		Users:        48,
		SeedArticles: 16,
		WritePerCore: 600,
		ReadPerCore:  900,
		Seed:         21,
	}
}

// RunE21 measures overload survival: an open-loop generator offers a
// mixed workload (publish/relay/vote/search/blob-read) to a fresh
// in-process node at each rate in the sweep and records goodput, shed
// rate, and tail latency. The paper's platform must absorb a firehose
// of submissions; this experiment shows what the admission-control
// subsystem buys when the firehose exceeds capacity — requests are
// refused cheaply with 429s ("shed"), accepted requests keep bounded
// queueing delay, and goodput holds near capacity instead of
// collapsing. The final rows report sustainable per-core goodput and
// the overload-vs-presaturation p99 ratio on the gated publish path,
// plus the node-side admission counters scraped from /v1/metrics.
func RunE21(cfg E21Config) (*Table, error) {
	t := &Table{
		ID:     "E21",
		Title:  "Overload survival: open-loop load sweep vs admission control",
		Claim:  "under overload the node sheds with 429s, goodput holds, and publish p99 stays within 5x of pre-saturation",
		Header: []string{"offered_rps", "goodput_rps", "shed_pct", "failed", "pub_p50_ms", "pub_p99_ms", "search_p99_ms", "blob_p99_ms", "ingest_p99_ms"},
	}
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("e21: no rates configured")
	}

	type cell struct {
		rate float64
		sum  loadgen.Summary
	}
	var cells []cell
	var lastMetrics string
	cores := runtime.GOMAXPROCS(0)
	writes := cfg.WritePerCore * float64(cores)
	reads := cfg.ReadPerCore * float64(cores)
	for i, rate := range cfg.Rates {
		// Cells must be comparable: collect garbage left by whatever ran
		// before this cell (earlier cells, or earlier experiments when the
		// sweep runs inside benchrunner) so GC pauses from someone else's
		// heap do not land in this cell's tail.
		runtime.GC()
		// A fresh node per cell: no carry-over chain growth or mempool
		// backlog between rates, so cells are comparable. Each node is
		// provisioned like a production deployment: static ceilings on
		// the hot routes plus the default adaptive gates.
		node, err := loadgen.StartLocalNode(func(pc *platform.Config) {
			routes := map[string]admission.RouteLimit{}
			if writes > 0 {
				routes["POST /v1/tx"] = admission.RouteLimit{PerSecond: writes, Burst: int(writes / 4)}
				routes["POST /v1/blobs"] = admission.RouteLimit{PerSecond: writes, Burst: int(writes / 4)}
			}
			if reads > 0 {
				routes["GET /v1/search"] = admission.RouteLimit{PerSecond: reads, Burst: int(reads / 4)}
				routes["GET /v1/blobs/{cid}"] = admission.RouteLimit{PerSecond: reads, Burst: int(reads / 4)}
			}
			pc.Admission.Routes = routes
			// A short edge-gate queue: with ~2.5k req/s of accepted
			// traffic, 8 queued requests per core is ~3ms of sojourn, so
			// requests the ceilings let through cannot stand in a long
			// line — they are served promptly or shed. The default queue
			// (64/core) favours absorption over latency; this experiment
			// is measuring the latency bound.
			pc.Admission.HTTP = admission.GateConfig{MaxConcurrent: 4 * cores, MaxQueue: 8 * cores}
		})
		if err != nil {
			return nil, err
		}
		lcfg := loadgen.DefaultConfig()
		lcfg.BaseURL = node.URL
		lcfg.Rate = rate
		lcfg.Duration = cfg.Duration
		lcfg.Users = cfg.Users
		lcfg.SeedArticles = cfg.SeedArticles
		lcfg.Seed = cfg.Seed + int64(i)
		// A raw-article share exercises the async ingestion edge (queue
		// admission + durable enqueue) alongside the synchronous paths.
		lcfg.Mix.Ingest = 10
		// A tight in-flight cap: on a small host the generator shares
		// cores with the node, and by Little's law the in-flight pool
		// itself is a queue — 64 slots at ~2.5k req/s is ~25ms of
		// client-side sojourn that would drown the server-side latency
		// this sweep is measuring. Arrivals beyond the cap are dropped
		// and counted against the shed rate, so overload still shows up.
		lcfg.MaxInFlight = 32
		eng, err := loadgen.New(lcfg)
		if err != nil {
			node.Close()
			return nil, err
		}
		sum, err := eng.Run()
		if err != nil {
			node.Close()
			return nil, err
		}
		// The ISSUE's observability contract: admission decisions must
		// be visible on the public metrics endpoint while under load.
		metrics, err := loadgen.NewClient(node.URL, 5*time.Second).Metrics()
		node.Close()
		if err != nil {
			return nil, err
		}
		if !strings.Contains(metrics, "trustnews_admission_accepted_total") {
			return nil, fmt.Errorf("e21: admission metrics missing from /v1/metrics at %.0f req/s", rate)
		}
		lastMetrics = metrics
		cells = append(cells, cell{rate: rate, sum: sum})
		t.AddRow(
			fmt.Sprintf("%.0f", rate),
			f1(sum.GoodputPerSec),
			f1(sum.ShedRate*100),
			d(sum.Failed),
			f1(sum.Ops[loadgen.OpPublish].P50Ms),
			f1(sum.Ops[loadgen.OpPublish].P99Ms),
			f1(sum.Ops[loadgen.OpSearch].P99Ms),
			f1(sum.Ops[loadgen.OpBlobRead].P99Ms),
			f1(sum.Ops[loadgen.OpIngest].P99Ms),
		)
	}

	// Capacity summary: the best goodput any cell reached, per core.
	best := 0.0
	for _, c := range cells {
		if c.sum.GoodputPerSec > best {
			best = c.sum.GoodputPerSec
		}
	}
	t.AddRow("capacity/core", f1(best/float64(cores)), "-", "-", "-", "-", "-", "-", "-")

	// Overload ratio: publish p99 at the highest offered rate over the
	// pre-saturation publish p99 — the claim is <= 5x. Pre-saturation is
	// the regime the node served nearly losslessly (<5% shed); its tail
	// is the worst p99 observed across those cells, so one unusually
	// quiet cell on a noisy shared host cannot masquerade as the
	// baseline. Cells above that regime are the overload under test.
	pre := cells[0].sum.Ops[loadgen.OpPublish].P99Ms
	for _, c := range cells {
		if c.sum.ShedRate < 0.05 && c.sum.Ops[loadgen.OpPublish].P99Ms > pre {
			pre = c.sum.Ops[loadgen.OpPublish].P99Ms
		}
	}
	over := cells[len(cells)-1].sum.Ops[loadgen.OpPublish].P99Ms
	ratio := "-"
	if pre > 0 {
		ratio = fmt.Sprintf("%.2f", over/pre)
	}
	t.AddRow("p99_overload_x", ratio, "-", "-", f1(pre), f1(over), "-", "-", "-")

	// Node-side admission counters from the top-rate cell, proving the
	// sheds the client saw were deliberate admission decisions.
	accepted := sumMetric(lastMetrics, "trustnews_admission_accepted_total")
	shed := sumMetric(lastMetrics, "trustnews_admission_shed_total")
	t.AddRow("node_admission", f1(accepted), f1(shed), "-", "-", "-", "-", "-", "-")
	return t, nil
}

// sumMetric totals every sample of a counter family in a Prometheus
// exposition (labels vary; the family total is what the table needs).
func sumMetric(exposition, family string) float64 {
	var total float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

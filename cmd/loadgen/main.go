// Command loadgen offers a constant-arrival-rate traffic mix to a
// trustnewsd node and reports goodput, shed rate, and per-route latency
// percentiles as machine-readable JSON.
//
// Against a running node:
//
//	loadgen -url http://127.0.0.1:8420 -rate 500 -duration 30s
//
// Or self-contained, against an in-process node (capacity probing on a
// dev machine without standing up a daemon):
//
//	loadgen -local -rate 2000 -duration 15s
//
// The traffic mix is publish/relay/vote/search/blob-read with
// zipf-distributed user activity and article popularity; weights are
// set with -mix (e.g. -mix "publish=25,relay=10,vote=15,search=30,blob_read=20").
// The generator is open-loop: arrivals fire on schedule regardless of
// outstanding requests, so overload shows up as shed rate and tail
// latency instead of silently throttled offered load. 429 responses
// count as "shed" (admission control working), not failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		url      = flag.String("url", "", "node base URL (e.g. http://127.0.0.1:8420)")
		local    = flag.Bool("local", false, "run against an in-process node instead of -url")
		rate     = flag.Float64("rate", 200, "offered arrival rate, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "measured run length")
		users    = flag.Int("users", 64, "synthetic user population")
		seedArts = flag.Int("seed-articles", 24, "articles committed before measurement")
		inflight = flag.Int("inflight", 256, "max concurrent requests (arrivals past it are client-dropped)")
		mixSpec  = flag.String("mix", "", "op weights, e.g. publish=25,relay=10,vote=15,search=30,blob_read=20")
		seed     = flag.Int64("seed", 1, "deterministic workload seed")
		mint     = flag.Uint64("mint", 10_000, "tokens minted per user for vote stakes")
		authSeed = flag.String("authority-seed", "platform-authority", "authority key seed (must match the node)")
		out      = flag.String("out", "", "write the JSON summary to this file instead of stdout")
	)
	flag.Parse()
	if err := run(*url, *local, *rate, *duration, *users, *seedArts, *inflight,
		*mixSpec, *seed, *mint, *authSeed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(url string, local bool, rate float64, duration time.Duration,
	users, seedArts, inflight int, mixSpec string, seed int64, mint uint64,
	authSeed, out string) error {
	if local == (url != "") {
		return fmt.Errorf("exactly one of -url or -local is required")
	}
	cfg := loadgen.DefaultConfig()
	cfg.Rate = rate
	cfg.Duration = duration
	cfg.Users = users
	cfg.SeedArticles = seedArts
	cfg.MaxInFlight = inflight
	cfg.Seed = seed
	cfg.MintBudget = mint
	cfg.AuthoritySeed = authSeed
	if mixSpec != "" {
		mix, err := parseMix(mixSpec)
		if err != nil {
			return err
		}
		cfg.Mix = mix
	}
	if local {
		node, err := loadgen.StartLocalNode()
		if err != nil {
			return err
		}
		defer node.Close()
		cfg.BaseURL = node.URL
	} else {
		cfg.BaseURL = strings.TrimRight(url, "/")
	}

	eng, err := loadgen.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: offering %.0f req/s for %s to %s (%d users, mix %+v)\n",
		cfg.Rate, cfg.Duration, cfg.BaseURL, cfg.Users, cfg.Mix)
	sum, err := eng.Run()
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if out != "" {
		return os.WriteFile(out, raw, 0o644)
	}
	_, err = os.Stdout.Write(raw)
	return err
}

// parseMix reads "publish=25,relay=10,..." into a Mix. Unnamed ops keep
// weight zero; unknown names are an error.
func parseMix(spec string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch k {
		case loadgen.OpPublish:
			m.Publish = w
		case loadgen.OpRelay:
			m.Relay = w
		case loadgen.OpVote:
			m.Vote = w
		case loadgen.OpSearch:
			m.Search = w
		case loadgen.OpBlobRead:
			m.BlobRead = w
		default:
			return m, fmt.Errorf("unknown op %q in mix", k)
		}
	}
	if m.Publish+m.Relay+m.Vote+m.Search+m.BlobRead <= 0 {
		return m, fmt.Errorf("mix %q has no positive weights", spec)
	}
	return m, nil
}

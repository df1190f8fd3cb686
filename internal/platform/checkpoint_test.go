package platform

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/store"
)

// runWorkload drives a varied block sequence: seeded facts, published
// items, relays, mints and votes, so every derived index (fact index,
// graph, receipts, balances) has state worth snapshotting.
func runWorkload(t *testing.T, p *Platform, rounds int) {
	t.Helper()
	if err := p.SeedFact("fact-0", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	voter := p.NewActor("workload-voter")
	if err := p.MintTo(voter.Address(), 10_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		author := p.NewActor("author-" + strconv.Itoa(i%3))
		id := "item-" + strconv.Itoa(i)
		if err := author.PublishNews(id, corpus.TopicPolitics, factText+" issue "+strconv.Itoa(i), nil, ""); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := author.Relay("relay-"+strconv.Itoa(i), id); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if err := voter.Vote(id, true, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertSameDerivedState compares every externally observable piece of
// derived state between two nodes that claim to represent the same chain.
func assertSameDerivedState(t *testing.T, a, b *Platform) {
	t.Helper()
	if ha, hb := a.Chain().Height(), b.Chain().Height(); ha != hb {
		t.Fatalf("height %d != %d", ha, hb)
	}
	if ia, ib := a.Chain().HeadID(), b.Chain().HeadID(); ia != ib {
		t.Fatalf("head id %s != %s", ia, ib)
	}
	ra, err := a.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("state root %s != %s", ra, rb)
	}
	if la, lb := a.FactIndex().Len(), b.FactIndex().Len(); la != lb {
		t.Fatalf("fact index %d != %d", la, lb)
	}
	if fa, fb := a.FactIndex().Root(), b.FactIndex().Root(); fa != fb {
		t.Fatalf("fact accumulator root %s != %s", fa, fb)
	}
	sa, errA := a.Graph().Stats()
	sb, errB := b.Graph().Stats()
	if errA != nil || errB != nil || sa != sb {
		t.Fatalf("graph stats %+v (%v) != %+v (%v)", sa, errA, sb, errB)
	}
	for _, topic := range corpus.AllTopics {
		ea, errA := a.Experts(topic, 0)
		eb, errB := b.Experts(topic, 0)
		if errA != nil || errB != nil || !reflect.DeepEqual(ea, eb) {
			t.Fatalf("experts on %s: %v (%v) != %v (%v)", topic, ea, errA, eb, errB)
		}
	}
	// Every committed tx must resolve to the same receipt on both nodes.
	if err := a.Chain().Walk(0, func(blk *ledger.Block) bool {
		for _, tx := range blk.Txs {
			recA, okA := a.Receipt(tx.ID())
			recB, okB := b.Receipt(tx.ID())
			if okA != okB || !bytes.Equal(contract.EncodeReceipts([]contract.Receipt{recA}), contract.EncodeReceipts([]contract.Receipt{recB})) {
				t.Fatalf("receipt mismatch for %s: %+v/%v vs %+v/%v", tx.ID(), recA, okA, recB, okB)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCheckpointMatchesFullReplay(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 24)
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ckptHeight := p.CheckpointHeight()
	if ckptHeight == 0 || ckptHeight != p.Chain().Height() {
		t.Fatalf("checkpoint height %d, chain %d", ckptHeight, p.Chain().Height())
	}
	// Keep committing past the checkpoint so reopen exercises tail replay.
	tail := p.NewActor("late-author")
	for i := 0; i < 5; i++ {
		if err := tail.PublishNews("late-"+strconv.Itoa(i), corpus.TopicHealth, "late statement "+strconv.Itoa(i), nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	voterAddr := p.NewActor("workload-voter").Address()
	wantBal, err := ranking.Balance(p.Engine(), p.Authority(), voterAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	// Reopen via the checkpoint fast path.
	fast, closeFast, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFast()
	if fast.CheckpointHeight() != ckptHeight {
		t.Fatalf("fast open checkpoint height %d want %d (restore path not taken)", fast.CheckpointHeight(), ckptHeight)
	}

	// Reopen via full replay with the checkpoint out of the way.
	if err := os.Rename(filepath.Join(dir, checkpointName), filepath.Join(dir, "ckpt.aside")); err != nil {
		t.Fatal(err)
	}
	full, closeFull, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFull()
	if full.CheckpointHeight() != 0 {
		t.Fatalf("full replay open reports checkpoint height %d", full.CheckpointHeight())
	}

	assertSameDerivedState(t, fast, full)
	gotBal, err := ranking.Balance(fast.Engine(), fast.Authority(), voterAddr)
	if err != nil || gotBal != wantBal {
		t.Fatalf("balance after fast open %d want %d (err=%v)", gotBal, wantBal, err)
	}
	// The restored node must keep working: commit one more block on each
	// and verify they stay identical.
	for _, node := range []*Platform{fast, full} {
		a := node.NewActor("post-open")
		if err := a.PublishNews("post-open-item", corpus.TopicScience, "post reopen statement", nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	assertSameDerivedState(t, fast, full)
}

// A checkpoint that cannot be trusted — damaged on disk, cut under another
// state-root scheme, whose StateHash this build cannot reproduce, or
// carrying the JSON search snapshot of earlier builds, which this one does
// not read — is ignored in favour of full replay, which arrives at the same
// node and answers the same queries.
func TestOpenFallsBackOnUnusableCheckpoint(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"flipped byte": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"older root scheme": func(t *testing.T, path string) {
			cp, err := store.ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			cp.RootScheme = contract.StateRootScheme - 1
			if err := store.WriteCheckpoint(path, cp); err != nil {
				t.Fatal(err)
			}
		},
		"JSON search snapshot": func(t *testing.T, path string) {
			cp, err := store.ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := os.ReadFile(filepath.Join("..", "search", "testdata", "checkpoint_v1.json"))
			if err != nil {
				t.Fatal(err)
			}
			cp.Subscribers[search.SubscriberName] = blob
			if err := store.WriteCheckpoint(path, cp); err != nil {
				t.Fatal(err)
			}
		},
	}
	queries := []string{factText, "border treaty 3"}
	for name, apply := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			p, closeFn, err := Open(dir, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			runWorkload(t, p, 8)
			if err := p.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			height := p.Chain().Height()
			root, err := p.Engine().StateRoot()
			if err != nil {
				t.Fatal(err)
			}
			var answers []search.Page
			for _, q := range queries {
				answers = append(answers, p.SearchPage(q, search.RankBM25, 0, 0))
			}
			closeFn()

			apply(t, filepath.Join(dir, checkpointName))

			p2, close2, err := Open(dir, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer close2()
			if p2.CheckpointHeight() != 0 {
				t.Fatalf("unusable checkpoint restored (height %d)", p2.CheckpointHeight())
			}
			if p2.Chain().Height() != height {
				t.Fatalf("height %d want %d", p2.Chain().Height(), height)
			}
			root2, err := p2.Engine().StateRoot()
			if err != nil || root2 != root {
				t.Fatalf("state root %s want %s (err=%v)", root2, root, err)
			}
			p2.FlushSearch()
			for i, q := range queries {
				if got := p2.SearchPage(q, search.RankBM25, 0, 0); answers[i].Total == 0 || !reflect.DeepEqual(got, answers[i]) {
					t.Fatalf("%q: the replayed node answers %+v, the one that wrote the checkpoint %+v", q, got, answers[i])
				}
			}
		})
	}
}

// Replay holds every block's state to the root in its header before it
// executes the block, on the full-replay path and on the WAL tail above a
// checkpoint alike: a log one of whose blocks commits to a root its
// predecessors do not produce fails Open with ErrStateRootMismatch instead
// of booting a node whose state contradicts its chain. The forged block is
// the last one, one in the middle of the replayed range, or the first
// above the checkpoint (whose header alone attests the restored state).
func TestOpenRejectsTamperedStateRoot(t *testing.T) {
	for _, tc := range []struct {
		name       string
		checkpoint bool
		// forge picks the forged height from the chain's height and the
		// checkpoint's.
		forge func(height, ckpt uint64) uint64
	}{
		{"full replay", false, func(h, _ uint64) uint64 { return h - 1 }},
		{"full replay, middle block", false, func(h, _ uint64) uint64 { return h / 2 }},
		{"tail above a checkpoint", true, func(_, c uint64) uint64 { return c }},
		{"tail above a checkpoint, middle block", true, func(_, c uint64) uint64 { return c + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p, closeFn, err := Open(dir, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			runWorkload(t, p, 4)
			if tc.checkpoint {
				if err := p.WriteCheckpoint(); err != nil {
					t.Fatal(err)
				}
			}
			a := p.NewActor("late")
			for i := 0; i < 3; i++ {
				if err := a.PublishNews("late-item-"+strconv.Itoa(i), corpus.TopicScience, "a late statement "+strconv.Itoa(i), nil, ""); err != nil {
					t.Fatal(err)
				}
			}
			blocks, certs := storedChain(t, p)
			forged := tc.forge(p.Chain().Height(), p.CheckpointHeight())
			closeFn()

			blocks[forged].Header.StateRoot[0] ^= 1
			writeChainLog(t, dir, blocks, certs)
			_, _, err = Open(dir, DefaultConfig())
			if !errors.Is(err, ErrStateRootMismatch) {
				t.Fatalf("Open of a log whose block %d of %d carries a forged state root: want ErrStateRootMismatch, got %v", forged, len(blocks), err)
			}
		})
	}
}

// A standalone chain written before headers carried the deferred root —
// each header held the root after its own block, and no record carried a
// certificate — is not migrated: Open fails with ErrStateRootMismatch, on
// full replay and when its checkpoint (written under state-root scheme 1)
// is at the tip, where no block is left to replay above it.
func TestOpenRejectsPostStateRoots(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run("checkpoint="+strconv.FormatBool(checkpoint), func(t *testing.T) {
			dir := t.TempDir()
			p, closeFn, err := Open(dir, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			runWorkload(t, p, 4)
			if checkpoint {
				if err := p.WriteCheckpoint(); err != nil {
					t.Fatal(err)
				}
			}
			blocks, _ := storedChain(t, p)
			closeFn()

			// Re-execute the blocks on a fresh node to give each header
			// the root after its block.
			fresh, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blocks {
				fresh.Engine().ExecuteBlock(b)
				if b.Header.StateRoot, err = fresh.Engine().StateRoot(); err != nil {
					t.Fatal(err)
				}
			}
			ids := writeChainLog(t, dir, blocks, make([][]byte, len(blocks)))
			if checkpoint {
				path := filepath.Join(dir, checkpointName)
				cp, err := store.ReadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				log, err := store.OpenFileLog(filepath.Join(dir, chainLogName))
				if err != nil {
					t.Fatal(err)
				}
				chain, err := ledger.NewChain(log, store.NewMemLog())
				if err != nil {
					t.Fatal(err)
				}
				snap, err := chain.SnapshotState()
				log.Close()
				if err != nil {
					t.Fatal(err)
				}
				cp.Chain, cp.HeadID, cp.RootScheme = snap, ids[len(ids)-1].String(), 1
				if err := store.WriteCheckpoint(path, cp); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err = Open(dir, DefaultConfig())
			if !errors.Is(err, ErrStateRootMismatch) {
				t.Fatalf("Open of a chain whose headers carry post-state roots: want ErrStateRootMismatch, got %v", err)
			}
		})
	}
}

// storedChain reads every block of p's chain with the certificate stored
// after it.
func storedChain(t *testing.T, p *Platform) ([]*ledger.Block, [][]byte) {
	t.Helper()
	blocks := make([]*ledger.Block, p.Chain().Height())
	certs := make([][]byte, len(blocks))
	for h := range blocks {
		var err error
		if blocks[h], err = p.Chain().BlockAt(uint64(h)); err != nil {
			t.Fatal(err)
		}
		if certs[h], err = p.Chain().CertAt(uint64(h)); err != nil {
			t.Fatal(err)
		}
	}
	return blocks, certs
}

// writeChainLog replaces dir's chain.log with blocks, each linked to the
// one before it (a forged header changes the id its successor names) and
// stored with its certificate, if it has one. It returns the blocks' ids.
func writeChainLog(t *testing.T, dir string, blocks []*ledger.Block, certs [][]byte) []ledger.BlockID {
	t.Helper()
	path := filepath.Join(dir, chainLogName)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	log, err := store.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ids := make([]ledger.BlockID, len(blocks))
	var prev ledger.BlockID
	for h, b := range blocks {
		b.Header.Prev = prev
		rec := ledger.Writer{Buf: b.Encode()}
		if certs[h] != nil {
			rec.Bytes(certs[h])
		}
		if _, err := log.Append(rec.Buf); err != nil {
			t.Fatal(err)
		}
		ids[h], prev = b.ID(), b.ID()
	}
	return ids
}

// A checkpoint written while a commit is in flight covers no block that
// is appended but not yet executed: its state hash is the root at its
// height, and a node reopened on the last one reaches the writer's root.
// Each round starts the checkpoint a little later into the commit.
func TestCheckpointConcurrentWithCommit(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := p.NewActor("racer")
	path := filepath.Join(dir, checkpointName)
	for i := 0; i < 60; i++ {
		if _, err := a.Send("news.publish", publishPayload(t, "race-"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		committed := make(chan error, 1)
		go func() { committed <- p.CommitAll() }()
		time.Sleep(time.Duration(i%20) * 25 * time.Microsecond)
		if err := p.WriteCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if err := <-committed; err != nil {
			t.Fatal(err)
		}
		cp, err := store.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Engine().StateRoot()
		if err != nil {
			t.Fatal(err)
		}
		if cp.Height < p.Chain().Height() {
			// The next block's header carries the root before it.
			next, err := p.Chain().BlockAt(cp.Height)
			if err != nil {
				t.Fatal(err)
			}
			want = next.Header.StateRoot
		}
		if cp.StateHash != want.String() {
			t.Fatalf("round %d: checkpoint at height %d of %d holds state root %s, want %s", i, cp.Height, p.Chain().Height(), cp.StateHash, want)
		}
	}
	root, err := p.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	height := p.Chain().Height()
	closeFn()

	p2, close2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer close2()
	if p2.Chain().Height() != height {
		t.Fatalf("reopened at height %d want %d", p2.Chain().Height(), height)
	}
	got, err := p2.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Fatalf("reopened (checkpoint height %d) at state root %s, the writer reached %s", p2.CheckpointHeight(), got, root)
	}
}

func TestOpenRecoversFromTornLogTail(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 6)
	height := p.Chain().Height()
	prevID, err := p.Chain().BlockAt(height - 2)
	if err != nil {
		t.Fatal(err)
	}
	closeFn()

	// Simulate a crash mid-append: chop bytes off the final record so its
	// frame is incomplete.
	path := filepath.Join(dir, chainLogName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p2, close2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Chain().Height() != height-1 {
		t.Fatalf("recovered height %d want %d", p2.Chain().Height(), height-1)
	}
	if p2.Chain().HeadID() != prevID.ID() {
		t.Fatalf("recovered head %s want %s", p2.Chain().HeadID(), prevID.ID())
	}
	// The node keeps accepting commits after recovery.
	a := p2.NewActor("after-crash")
	if err := a.PublishNews("after-crash-item", corpus.TopicPolitics, "post crash statement", nil, ""); err != nil {
		t.Fatal(err)
	}
	if p2.Chain().Height() != height {
		t.Fatalf("post-recovery height %d want %d", p2.Chain().Height(), height)
	}
	close2()
}

func TestOpenFallsBackWhenCheckpointBeyondLog(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 6)
	// The root the writer reached at the head that survives the tear.
	survivor, err := p.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	a := p.NewActor("torn")
	if err := a.PublishNews("torn-item", corpus.TopicScience, "a statement torn away", nil, ""); err != nil {
		t.Fatal(err)
	}
	// Checkpoint covers the full chain, then the last block is torn away:
	// the checkpoint now claims a height the log cannot back.
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	height := p.Chain().Height()
	closeFn()

	path := filepath.Join(dir, chainLogName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p2, close2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer close2()
	if p2.CheckpointHeight() != 0 {
		t.Fatalf("stale checkpoint restored (height %d)", p2.CheckpointHeight())
	}
	if p2.Chain().Height() != height-1 {
		t.Fatalf("recovered height %d want %d", p2.Chain().Height(), height-1)
	}
	root, err := p2.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root != survivor {
		t.Fatal("recovered state root is not the one the writer reached at the surviving head")
	}
}

// ---------------------------------------------------------------------------
// Durable reopen: full replay vs checkpoint restore (EXPERIMENTS.md E15b).
// ---------------------------------------------------------------------------

const reopenChainBlocks = 5000

var (
	reopenChainOnce sync.Once
	reopenChainDir  string
	reopenChainErr  error
)

// reopenChain lazily builds one durable 5000-block chain (one mint tx per
// block) with a checkpoint at the head, shared by both reopen benchmarks.
func reopenChain(b *testing.B) string {
	b.Helper()
	reopenChainOnce.Do(func() {
		reopenChainDir, reopenChainErr = os.MkdirTemp("", "trustnews-reopen-bench-")
		if reopenChainErr != nil {
			return
		}
		p, closeFn, err := Open(reopenChainDir, DefaultConfig())
		if err != nil {
			reopenChainErr = err
			return
		}
		payer := p.NewActor("bench-payer")
		for i := 0; i < reopenChainBlocks; i++ {
			if err := p.MintTo(payer.Address(), 1); err != nil {
				reopenChainErr = err
				return
			}
		}
		if err := p.WriteCheckpoint(); err != nil {
			reopenChainErr = err
			return
		}
		reopenChainErr = closeFn()
	})
	if reopenChainErr != nil {
		b.Fatal(reopenChainErr)
	}
	return reopenChainDir
}

// BenchmarkOpenReplay reopens the 5000-block chain the original way:
// decode, validate and re-execute every block (checkpoint moved aside).
func BenchmarkOpenReplay(b *testing.B) {
	dir := reopenChain(b)
	ckpt := filepath.Join(dir, "checkpoint.ckpt")
	aside := filepath.Join(dir, "checkpoint.aside")
	if err := os.Rename(ckpt, aside); err != nil {
		b.Fatal(err)
	}
	defer os.Rename(aside, ckpt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, closeFn, err := Open(dir, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if p.Chain().Height() != reopenChainBlocks {
			b.Fatalf("height %d", p.Chain().Height())
		}
		closeFn()
	}
}

// BenchmarkOpenCheckpoint reopens the same chain from the checkpoint:
// restore subscriber snapshots, verify state roots, replay only the tail.
func BenchmarkOpenCheckpoint(b *testing.B) {
	dir := reopenChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, closeFn, err := Open(dir, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if p.CheckpointHeight() != reopenChainBlocks {
			b.Fatalf("checkpoint restore not taken (height %d)", p.CheckpointHeight())
		}
		closeFn()
	}
}

package platform

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// servedReceipts returns the canonical encoding of the receipt the node
// serves for every transaction on its chain, failing the test if one is
// not served.
func servedReceipts(t *testing.T, p *Platform) map[ledger.TxID][]byte {
	t.Helper()
	out := make(map[ledger.TxID][]byte)
	if err := p.Chain().Walk(0, func(b *ledger.Block) bool {
		for _, tx := range b.Txs {
			rec, ok := p.Receipt(tx.ID())
			if !ok {
				t.Fatalf("no receipt for committed tx %s at height %d", tx.ID().Short(), b.Header.Height)
			}
			out[tx.ID()] = contract.EncodeReceipts([]contract.Receipt{rec})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// commitFailingTx commits a publish of an id that is already taken and
// checks that its failure receipt is served.
func commitFailingTx(t *testing.T, p *Platform, takenID string) {
	t.Helper()
	tx, err := p.NewActor("late-copycat").Send("news.publish", publishPayload(t, takenID))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if rec, ok := p.Receipt(tx.ID()); !ok || rec.OK || rec.Err == "" {
		t.Fatalf("duplicate publish: receipt %+v found=%v, want a failure receipt", rec, ok)
	}
}

// frameOffsets returns the byte offset of every record frame of a store
// file log ([len u32][crc u32][payload]).
func frameOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	var offs []int
	for off := 0; off < len(raw); {
		offs = append(offs, off)
		off += 8 + int(binary.BigEndian.Uint32(raw[off:]))
	}
	return offs
}

// TestOpenRepairsReceiptLog damages the receipt log of a checkpointed
// data directory in every way a crash, a disk or an operator can, and
// checks that the node opens, takes the replay path the damage calls for,
// serves for every committed transaction — failed ones included — the
// very bytes it served before the restart, and keeps recording.
func TestOpenRepairsReceiptLog(t *testing.T) {
	type fixture struct {
		dir        string
		ckptHeight uint64
		height     uint64
		// chainAtCkpt is a copy of chain.log as of the checkpoint.
		chainAtCkpt []byte
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, f fixture)
		// wantCkpt says whether the checkpoint is still usable.
		wantCkpt bool
		// wantHeight overrides the expected chain height (0: unchanged).
		wantHeight func(f fixture) uint64
	}{
		{name: "intact", damage: func(*testing.T, fixture) {}, wantCkpt: true},
		{name: "missing", damage: func(t *testing.T, f fixture) {
			if err := os.Remove(filepath.Join(f.dir, receiptLogName)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "torn last record", wantCkpt: true, damage: func(t *testing.T, f fixture) {
			path := filepath.Join(f.dir, receiptLogName)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "zero-filled tail", wantCkpt: true, damage: func(t *testing.T, f fixture) {
			// A machine crash extended the file without writing the last
			// records: zeros where three records were, which frame as
			// empty records with a valid checksum.
			path := filepath.Join(f.dir, receiptLogName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			offs := frameOffsets(t, raw)
			cut := offs[len(offs)-3]
			if err := os.WriteFile(path, append(raw[:cut:cut], make([]byte, 16)...), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "flipped byte below the checkpoint", damage: func(t *testing.T, f fixture) {
			flipReceiptByte(t, f.dir, 2)
		}},
		{name: "flipped byte in the tail", wantCkpt: true, damage: func(t *testing.T, f fixture) {
			flipReceiptByte(t, f.dir, int(f.ckptHeight)+1)
		}},
		{name: "shorter than the checkpoint", damage: func(t *testing.T, f fixture) {
			path := filepath.Join(f.dir, receiptLogName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, int64(frameOffsets(t, raw)[f.ckptHeight-1])); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "longer than the chain", wantHeight: func(f fixture) uint64 { return f.ckptHeight }, damage: func(t *testing.T, f fixture) {
			// The chain loses its tail (an operator restored an older
			// chain.log); the checkpoint was cut at that height, so it
			// still fits, but the receipt log is not to be trusted.
			if err := os.WriteFile(filepath.Join(f.dir, chainLogName), f.chainAtCkpt, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "written by the parent commit", damage: func(t *testing.T, f fixture) {
			// Before the receipt log there was no receipts.log, and the
			// checkpoint carried a gob blob of every receipt under
			// "receipts".
			if err := os.Remove(filepath.Join(f.dir, receiptLogName)); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(f.dir, checkpointName)
			cp, err := store.ReadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if err := gob.NewEncoder(&blob).Encode(struct{ Receipts []contract.Receipt }{[]contract.Receipt{{OK: true, GasUsed: 7}}}); err != nil {
				t.Fatal(err)
			}
			cp.Subscribers["receipts"] = blob.Bytes()
			if err := store.WriteCheckpoint(ckpt, cp); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := fixture{dir: t.TempDir()}
			p, closeFn, err := Open(f.dir, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			runWorkload(t, p, 6)
			commitFailingTx(t, p, "item-0")
			if err := p.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			f.ckptHeight = p.CheckpointHeight()
			if f.chainAtCkpt, err = os.ReadFile(filepath.Join(f.dir, chainLogName)); err != nil {
				t.Fatal(err)
			}
			atCkpt := servedReceipts(t, p)
			tail := p.NewActor("tail-author")
			for i := 0; i < 4; i++ {
				if err := tail.PublishNews("tail-"+strconv.Itoa(i), corpus.TopicHealth, "tail statement "+strconv.Itoa(i), nil, ""); err != nil {
					t.Fatal(err)
				}
			}
			commitFailingTx(t, p, "tail-0")
			f.height = p.Chain().Height()
			want := servedReceipts(t, p)
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}

			tc.damage(t, f)

			re, closeRe, err := Open(f.dir, DefaultConfig())
			if err != nil {
				t.Fatalf("open over a damaged receipt log: %v", err)
			}
			defer closeRe()
			wantHeight := f.height
			if tc.wantHeight != nil {
				wantHeight = tc.wantHeight(f)
				want = atCkpt
			}
			if got := re.Chain().Height(); got != wantHeight {
				t.Fatalf("chain height %d, want %d", got, wantHeight)
			}
			wantCkpt := uint64(0)
			if tc.wantCkpt {
				wantCkpt = f.ckptHeight
			}
			if got := re.CheckpointHeight(); got != wantCkpt {
				t.Fatalf("restored checkpoint height %d, want %d", got, wantCkpt)
			}
			got := servedReceipts(t, re)
			if len(got) != len(want) {
				t.Fatalf("%d receipts served, want %d", len(got), len(want))
			}
			for id, enc := range want {
				if !bytes.Equal(got[id], enc) {
					t.Fatalf("receipt of %s changed across the restart:\n before %x\n after  %x", id.Short(), enc, got[id])
				}
			}
			if n := re.receipts.Len(); n != wantHeight {
				t.Fatalf("receipt log holds %d records for %d blocks", n, wantHeight)
			}

			// The repaired log keeps recording, and a checkpoint written
			// now is usable: the repair happens once.
			if err := re.NewActor("after").PublishNews("after-restart", corpus.TopicHealth, "a statement after the restart", nil, ""); err != nil {
				t.Fatal(err)
			}
			if err := re.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			want = servedReceipts(t, re)
			if err := closeRe(); err != nil {
				t.Fatal(err)
			}
			again, closeAgain, err := Open(f.dir, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer closeAgain()
			if got := again.CheckpointHeight(); got != wantHeight+1 {
				t.Fatalf("second reopen restored checkpoint height %d, want %d (replayed again)", got, wantHeight+1)
			}
			for id, enc := range servedReceipts(t, again) {
				if !bytes.Equal(want[id], enc) {
					t.Fatalf("receipt of %s changed across the second restart", id.Short())
				}
			}
		})
	}
}

// failingReceiptLog refuses one append.
type failingReceiptLog struct {
	receiptLog
	fail bool
}

func (l *failingReceiptLog) AppendUnsynced(rec []byte) (uint64, error) {
	if l.fail {
		l.fail = false
		return 0, errors.New("disk says no")
	}
	return l.receiptLog.AppendUnsynced(rec)
}

// A receipt append that fails costs receipts, not commits: the block is
// returned as committed, the mempool keeps draining, the failure is
// counted, and the receipts from the gap on are "not found" (an append
// after the gap would file them under another block's height).
func TestReceiptAppendFailureDoesNotFailCommit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	cfg.MaxTxsPerBlock = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mintBlocks(t, p, 2)
	p.receipts = &failingReceiptLog{receiptLog: p.receipts, fail: true}
	mintBlocks(t, p, 6)
	if h, n := p.Chain().Height(), p.pool.Size(); h != 4 || n != 0 {
		t.Fatalf("chain height %d with %d txs pending, want 4 and 0", h, n)
	}
	if got := cfg.Telemetry.Counter("trustnews_platform_receipt_errors_total", "").Value(); got != 3 {
		t.Fatalf("receipt errors counted: %d, want 3 (the refused block and the two behind it)", got)
	}
	for h := uint64(0); h < 4; h++ {
		blk, err := p.Chain().BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Receipt(blk.Txs[0].ID()); ok != (h == 0) {
			t.Fatalf("receipt of a tx at height %d found=%v", h, ok)
		}
	}
}

// flipReceiptByte inverts one payload byte of record rec of dir's receipt
// log.
func flipReceiptByte(t *testing.T, dir string, rec int) {
	t.Helper()
	path := filepath.Join(dir, receiptLogName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameOffsets(t, raw)[rec]+8+2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// mintBlocks commits n authority mints to one account in full blocks: the
// cheapest transaction that leaves a receipt with an event, on constant
// contract state.
func mintBlocks(tb testing.TB, p *Platform, n int) {
	tb.Helper()
	payload, err := ranking.MintPayload(p.NewActor("saver").Address(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := p.authoritySubmit("rank.mint", payload); err != nil {
			tb.Fatal(err)
		}
		if (i+1)%p.cfg.MaxTxsPerBlock == 0 || i == n-1 {
			if err := p.CommitAll(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestReceiptMemoryBounded: what a durable node keeps in memory per
// committed transaction is its chain index entry, not its receipt. 45 000
// more transactions cost about 5 MB of index (≈110 bytes each); with every
// decoded mint receipt and its event map retained they cost 14 MB.
func TestReceiptMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 55 000 transactions")
	}
	heapAfter := func(txs int) uint64 {
		p, closeFn, err := Open(t.TempDir(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer closeFn()
		mintBlocks(t, p, txs)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(p)
		return ms.HeapInuse
	}
	const small, large = 5_000, 50_000
	base, grown := heapAfter(small), heapAfter(large)
	const budget = 8 << 20
	if grown > base+budget {
		t.Fatalf("heap in use after %d txs is %.1f MB, after %d txs %.1f MB: grew by more than %d MB",
			large, float64(grown)/(1<<20), small, float64(base)/(1<<20), budget>>20)
	}
	t.Logf("heap in use: %.1f MB after %d txs, %.1f MB after %d", float64(base)/(1<<20), small, float64(grown)/(1<<20), large)
}

var sinkReceipt contract.Receipt

// BenchmarkReceiptLookup prices Platform.Receipt on a 5 000-block durable
// chain: "cold" walks transactions spread over all blocks, "repeated" asks
// for one transaction again and again (the operating system's page cache
// serves both; the node itself caches nothing).
func BenchmarkReceiptLookup(b *testing.B) {
	cfg := DefaultConfig()
	cfg.MaxTxsPerBlock = 4
	p, closeFn, err := Open(b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer closeFn()
	const blocks = 5_000
	mintBlocks(b, p, blocks*cfg.MaxTxsPerBlock)
	if h := p.Chain().Height(); h != blocks {
		b.Fatalf("chain height %d, want %d", h, blocks)
	}
	ids := make([]ledger.TxID, 0, blocks)
	if err := p.Chain().Walk(0, func(blk *ledger.Block) bool {
		ids = append(ids, blk.Txs[len(blk.Txs)-1].ID())
		return true
	}); err != nil {
		b.Fatal(err)
	}
	lookup := func(b *testing.B, id ledger.TxID) {
		rec, ok := p.Receipt(id)
		if !ok || !rec.OK {
			b.Fatalf("receipt %+v found=%v", rec, ok)
		}
		sinkReceipt = rec
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lookup(b, ids[(i*2503)%len(ids)]) // 2503 is coprime to 5000: a stride over all blocks
		}
	})
	b.Run("repeated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lookup(b, ids[len(ids)/2])
		}
	})
}

package contract

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/store"
)

// bulkContract writes and reads many keys per call: "fill" takes
// "start:count:valueBytes" and writes keys k/<i>; "put" takes key=value,
// "del" a key, "get" a key; "keys" lists a prefix.
type bulkContract struct{}

func (bulkContract) Name() string { return "bulk" }

func (bulkContract) Execute(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "fill":
		var start, count, size int
		if _, err := fmt.Sscanf(string(args), "%d:%d:%d", &start, &count, &size); err != nil {
			return nil, err
		}
		val := bytes.Repeat([]byte{'v'}, size)
		for i := start; i < start+count; i++ {
			if err := ctx.Put(fmt.Sprintf("k/%08d", i), val); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case "put":
		k, v, _ := strings.Cut(string(args), "=")
		return nil, ctx.Put(k, []byte(v))
	case "del":
		return nil, ctx.Delete(string(args))
	case "get":
		return ctx.Get(string(args))
	case "keys":
		ks, err := ctx.Keys(string(args))
		return []byte(strings.Join(ks, ",")), err
	}
	return nil, ErrUnknownMethod
}

// bulkEngine is an engine with the bulk contract over state.log in a
// temporary directory.
func bulkEngine(t testing.TB, cfg store.LSMConfig) *Engine {
	t.Helper()
	log, err := store.OpenFileLogTruncating(filepath.Join(t.TempDir(), "state.log"))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(log, cfg)
	t.Cleanup(func() { e.Close(); log.Close() })
	e.SetGasLimit(1 << 40)
	if err := e.Register(bulkContract{}); err != nil {
		t.Fatal(err)
	}
	return e
}

// block builds a block at height h of txs signed by kp from nonce on.
func block(t testing.TB, kp *keys.KeyPair, h, nonce uint64, calls ...string) *ledger.Block {
	t.Helper()
	var txs []*ledger.Tx
	for i, call := range calls {
		kind, args, _ := strings.Cut(call, " ")
		tx, err := ledger.NewTx(kp, nonce+uint64(i), kind, []byte(args))
		if err != nil {
			t.Fatal(err)
		}
		txs = append(txs, tx)
	}
	return ledger.NewBlock(h, ledger.BlockID{}, merkle.Hash{}, time.Unix(0, 0), kp.Address(), txs)
}

// What a durable engine keeps in memory does not grow with its state:
// 180 000 more keys may grow the heap by 16 bytes each (segment blooms and
// page fences), the memtable being empty at both points. The map the state
// used to live in held about 340 bytes a key.
func TestContractStateMemoryFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 200 000 keys")
	}
	e := bulkEngine(t, store.LSMConfig{SealEntries: stateSealEntries, SealBytes: stateSealBytes})
	kp := keys.FromSeed([]byte("flat"))
	// Blocks of exactly one memtable's worth seal whole: the memtable is
	// empty after each.
	written := 0
	fillTo := func(n int) {
		for ; written < n; written += stateSealEntries {
			h := uint64(written / stateSealEntries)
			e.ExecuteBlock(block(t, kp, h, h, fmt.Sprintf("bulk.fill %d:%d:100", written, stateSealEntries)))
		}
		e.state.WaitMerges()
		if st := e.StateStats(); st.Memory != 0 {
			t.Fatalf("%d entries left in the memtable", st.Memory)
		}
	}
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	fillTo(20_000)
	small, before := written, heapInUse()
	fillTo(200_000)
	after := heapInUse()
	st := e.StateStats()
	perKey := float64(int64(after)-int64(before)) / float64(written-small)
	t.Logf("heap in use %.2f MB at %d keys, %.2f MB at %d (%.2f B per key; %d segments, %d merges, log %.1f MB)",
		float64(before)/(1<<20), small, float64(after)/(1<<20), written, perKey, st.Segments, st.Merges, float64(st.LogBytes)/(1<<20))
	if perKey > 16 {
		t.Fatalf("heap grew %.2f bytes per key, budget 16", perKey)
	}
	if got, err := e.Query(kp.Address(), "bulk.get", []byte("k/00123456")); err != nil || len(got) != 100 {
		t.Fatalf("a key of the sealed state reads back %d bytes, %v", len(got), err)
	}
}

// The engine's state against a plain map, through blocks of random puts,
// overwrites and deletes on an engine that seals every few keys, while
// queries run beside it (run with -race): keys written before the
// queries start read back the same throughout, and at the end the state,
// its keys under every prefix and its root are the map's.
func TestEngineStateMatchesOracleUnderQueries(t *testing.T) {
	e := bulkEngine(t, store.LSMConfig{SealEntries: 8})
	oracle := map[string][]byte{}
	kp := keys.FromSeed([]byte("oracle"))
	var h, nonce uint64
	exec := func(calls ...string) {
		t.Helper()
		for _, r := range e.ExecuteBlock(block(t, kp, h, nonce, calls...)) {
			if !r.OK {
				t.Fatalf("%v", r.Err)
			}
		}
		h, nonce = h+1, nonce+uint64(len(calls))
	}
	var stable []string
	for i := 0; i < 10; i++ {
		k := "s/" + strconv.Itoa(i)
		stable = append(stable, k)
		exec("bulk.put " + k + "=" + k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range stable {
				got, err := e.Query(kp.Address(), "bulk.get", []byte(k))
				if err != nil || string(got) != k {
					t.Errorf("query %s = %q, %v", k, got, err)
					return
				}
			}
			if got, err := e.Query(kp.Address(), "bulk.keys", []byte("s/")); err != nil || strings.Count(string(got), ",") != len(stable)-1 {
				t.Errorf("query keys = %q, %v", got, err)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 300; step++ {
		var calls []string
		for n := rng.Intn(6); len(calls) < n; {
			k := []string{"a/", "b/", "b/c/"}[rng.Intn(3)] + strconv.Itoa(rng.Intn(60))
			if rng.Intn(4) == 0 {
				calls = append(calls, "bulk.del "+k)
				delete(oracle, "bulk/"+k)
			} else {
				v := strconv.Itoa(rng.Int())
				calls = append(calls, "bulk.put "+k+"="+v)
				oracle["bulk/"+k] = []byte(v)
			}
		}
		exec(calls...)
		if step%25 == 0 {
			if _, err := e.StateRoot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	for _, k := range stable {
		oracle["bulk/"+k] = []byte(k)
	}
	e.state.WaitMerges()
	snap, err := e.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(oracle) {
		t.Fatalf("%d keys, oracle %d", len(snap), len(oracle))
	}
	tr := merkle.NewTrie()
	for k, v := range oracle {
		if !bytes.Equal(snap[k], v) {
			t.Fatalf("%s = %q, oracle %q", k, snap[k], v)
		}
		tr.Put(k, v)
	}
	for _, prefix := range []string{"a/", "b/", "b/c/", "s/", "none/"} {
		got, err := e.Query(kp.Address(), "bulk.keys", []byte(prefix))
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for k := range oracle {
			if strings.HasPrefix(k, "bulk/"+prefix) {
				want = append(want, strings.TrimPrefix(k, "bulk/"))
			}
		}
		sort.Strings(want)
		if string(got) != strings.Join(want, ",") {
			t.Fatalf("keys under %s: %q, oracle %v", prefix, got, want)
		}
	}
	if root, err := e.StateRoot(); err != nil || root != tr.Root() {
		t.Fatalf("state root %s, oracle %s (%v)", root.Short(), tr.Root().Short(), err)
	}
	if st := e.StateStats(); st.Merges == 0 {
		t.Fatalf("no merge ran: %+v", st)
	}
}

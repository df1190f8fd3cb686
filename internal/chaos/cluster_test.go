package chaos

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/simnet"
	"repro/internal/supplychain"
)

func newDurableCluster(t *testing.T, n int, seed int64) *DurableCluster {
	t.Helper()
	d, err := NewDurableCluster(DurableClusterConfig{
		Validators: n,
		Seed:       seed,
		Dir:        t.TempDir(),
		Platform:   platform.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// submit signs one transaction and hands it to every live replica,
// failing unless all of them accept it.
func submit(t *testing.T, d *DurableCluster, kp *keys.KeyPair, nonce uint64, kind string, payload []byte) {
	t.Helper()
	tx, err := ledger.NewTx(kp, nonce, kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.SubmitLive(tx); got != d.LiveCount() {
		t.Fatalf("%d of %d live replicas accepted tx %d", got, d.LiveCount(), nonce)
	}
}

// pumpDurable submits a batch of publishes to the live replicas.
func pumpDurable(t *testing.T, d *DurableCluster, kp *keys.KeyPair, fromNonce uint64, count int) uint64 {
	t.Helper()
	nonce := fromNonce
	for i := 0; i < count; i++ {
		payload, err := supplychain.PublishPayload(
			"durable-item-"+strconv.FormatUint(nonce, 10), corpus.TopicPolitics,
			"the committee published finding "+strconv.FormatUint(nonce, 10), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		tx, err := ledger.NewTx(kp, nonce, "news.publish", payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.SubmitLive(tx); got == 0 {
			t.Fatalf("no live replica accepted tx %d", nonce)
		}
		nonce++
	}
	return nonce
}

func TestClusterReplicasConverge(t *testing.T) {
	d := newDurableCluster(t, 4, 77)
	client := keys.FromSeed([]byte("cluster-client"))
	for i := 0; i < 10; i++ {
		payload, err := supplychain.PublishPayload("item"+strconv.Itoa(i), corpus.TopicPolitics,
			"the parliament ratified the border treaty "+strconv.Itoa(i), nil, "")
		if err != nil {
			t.Fatal(err)
		}
		submit(t, d, client, uint64(i), "news.publish", payload)
	}
	d.Start()
	d.RunUntilLiveHeight(2, 2*time.Minute)
	if d.LiveMinHeight() < 1 {
		t.Fatalf("cluster stalled at height %d", d.LiveMinHeight())
	}
	if ok, err := d.ConvergedLive(); err != nil || !ok {
		t.Fatalf("converged=%v err=%v", ok, err)
	}
	// Every replica indexed the committed items.
	for i, r := range d.Replicas {
		if r.Graph().Len() == 0 {
			t.Fatalf("replica %d indexed no items", i)
		}
	}
}

func TestClusterAuthorityOperations(t *testing.T) {
	d := newDurableCluster(t, 4, 77)
	payload, err := factdb.SeedPayload("f1", corpus.TopicPolitics, "the senate ratified the treaty")
	if err != nil {
		t.Fatal(err)
	}
	// Every replica derives the authority key from the same seed.
	authority := keys.FromSeed([]byte(platform.DefaultConfig().AuthoritySeed))
	submit(t, d, authority, 0, "factdb.seed", payload)
	d.Start()
	d.RunUntilLiveHeight(1, 2*time.Minute)
	for i, r := range d.Replicas {
		if r.FactIndex().Len() != 1 {
			t.Fatalf("replica %d fact index len=%d", i, r.FactIndex().Len())
		}
	}
	if ok, err := d.ConvergedLive(); err != nil || !ok {
		t.Fatalf("converged=%v err=%v", ok, err)
	}
}

func TestClusterStandaloneCommitDisabled(t *testing.T) {
	d := newDurableCluster(t, 4, 77)
	if _, _, err := d.Replicas[0].Commit(); err == nil {
		t.Fatal("standalone commit must be disabled under consensus")
	}
}

func TestCommitterRefusesReplicatedNode(t *testing.T) {
	d := newDurableCluster(t, 4, 1)
	if err := d.Replicas[0].RunCommitter(context.Background()); !errors.Is(err, platform.ErrReplicated) {
		t.Fatalf("RunCommitter under consensus: want ErrReplicated, got %v", err)
	}
}

func TestClusterSurvivesOneCrash(t *testing.T) {
	d := newDurableCluster(t, 4, 77)
	payload, _ := supplychain.PublishPayload("item", corpus.TopicPolitics, "statement text", nil, "")
	submit(t, d, keys.FromSeed([]byte("cluster-client")), 0, "news.publish", payload)
	if err := d.Crash(3); err != nil {
		t.Fatal(err)
	}
	d.Start()
	if d.RunUntilLiveHeight(1, 4*time.Minute); d.LiveMinHeight() < 1 {
		t.Fatalf("live replicas stalled at height %d with one crashed", d.LiveMinHeight())
	}
}

func TestClusterPartitionStallsThenRecovers(t *testing.T) {
	d := newDurableCluster(t, 4, 77)
	payload, _ := supplychain.PublishPayload("item", corpus.TopicPolitics, "statement text", nil, "")
	submit(t, d, keys.FromSeed([]byte("cluster-client")), 0, "news.publish", payload)
	d.Net.Partition([]simnet.NodeID{"p0", "p1"}, []simnet.NodeID{"p2", "p3"})
	d.Start()
	d.RunUntilLiveHeight(1, 3*time.Second)
	if d.LiveMinHeight() != 0 {
		t.Fatal("committed during 2-2 partition")
	}
	d.Net.Heal()
	if d.RunUntilLiveHeight(1, 4*time.Minute); d.LiveMinHeight() < 1 {
		t.Fatalf("no recovery after heal; height=%d", d.LiveMinHeight())
	}
	if ok, err := d.ConvergedLive(); err != nil || !ok {
		t.Fatalf("converged=%v err=%v", ok, err)
	}
}

// TestDurableClusterCrashRestartRecovers kills one replica mid-run (after
// a checkpoint), lets the survivors commit on, then restarts it and
// checks it recovers from disk, backfills the missed heights through
// consensus sync, and converges to the survivors' state root.
func TestDurableClusterCrashRestartRecovers(t *testing.T) {
	d := newDurableCluster(t, 4, 7)
	client := keys.FromSeed([]byte("durable-client"))
	nonce := pumpDurable(t, d, client, 0, 6)
	d.Start()
	if spent := d.RunUntilLiveHeight(6, 2*time.Minute); d.LiveMinHeight() < 6 {
		t.Fatalf("cluster stalled at height %d after %v", d.LiveMinHeight(), spent)
	}

	// Checkpoint then crash replica 2; the survivors keep committing.
	if err := d.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	crashedAt := d.Replicas[2].Chain().Height()
	if err := d.Crash(2); err != nil {
		t.Fatal(err)
	}
	if d.LiveCount() != 3 {
		t.Fatalf("live count %d want 3", d.LiveCount())
	}
	pumpDurable(t, d, client, nonce, 6)
	target := crashedAt + 8
	if d.RunUntilLiveHeight(target, 2*time.Minute); d.LiveMinHeight() < target {
		t.Fatalf("survivors stalled at height %d want %d", d.LiveMinHeight(), target)
	}

	// Restart: reopen from checkpoint + WAL tail, rejoin, catch up.
	if err := d.Restart(2); err != nil {
		t.Fatal(err)
	}
	if got := d.Replicas[2].Chain().Height(); got < crashedAt-1 || got > crashedAt {
		// The last block may race the crash's final fsync; anything in
		// [crashedAt-1, crashedAt] is a sound recovery.
		t.Fatalf("recovered height %d, crashed at %d", got, crashedAt)
	}
	if d.Replicas[2].CheckpointHeight() == 0 {
		t.Fatal("restart ignored the checkpoint (full replay)")
	}
	catchup := d.LiveMaxHeight() + 2
	if d.RunUntilLiveHeight(catchup, 2*time.Minute); d.LiveMinHeight() < catchup {
		t.Fatalf("restarted replica stalled at height %d want %d",
			d.Replicas[2].Chain().Height(), catchup)
	}
	ok, err := d.ConvergedLive()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("replicas diverged after crash-restart")
	}
	// Committed-durability: every pre-crash item survived into the
	// restarted replica's graph.
	if d.Replicas[2].Graph().Len() == 0 {
		t.Fatal("restarted replica lost its supply-chain index")
	}
}

// TestDurableClusterRestartWithoutCheckpoint crashes a replica that never
// wrote a checkpoint and checks the full-replay restart path also rejoins
// and converges.
func TestDurableClusterRestartWithoutCheckpoint(t *testing.T) {
	d := newDurableCluster(t, 4, 11)
	client := keys.FromSeed([]byte("durable-client-2"))
	pumpDurable(t, d, client, 0, 4)
	d.Start()
	if d.RunUntilLiveHeight(4, 2*time.Minute); d.LiveMinHeight() < 4 {
		t.Fatalf("cluster stalled at height %d", d.LiveMinHeight())
	}
	if err := d.Crash(1); err != nil {
		t.Fatal(err)
	}
	if d.RunUntilLiveHeight(8, 2*time.Minute); d.LiveMinHeight() < 8 {
		t.Fatalf("survivors stalled at height %d", d.LiveMinHeight())
	}
	if err := d.Restart(1); err != nil {
		t.Fatal(err)
	}
	if d.Replicas[1].CheckpointHeight() != 0 {
		t.Fatal("unexpected checkpoint on full-replay path")
	}
	catchup := d.LiveMaxHeight() + 2
	if d.RunUntilLiveHeight(catchup, 2*time.Minute); d.LiveMinHeight() < catchup {
		t.Fatalf("restarted replica stalled at height %d", d.Replicas[1].Chain().Height())
	}
	ok, err := d.ConvergedLive()
	if err != nil || !ok {
		t.Fatalf("converged=%v err=%v", ok, err)
	}
}

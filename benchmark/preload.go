package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/ranking"
	"repro/internal/supplychain"
)

const (
	authoritySeed = "platform-authority" // platform.DefaultConfig's
	mintBudget    = 1_000_000
)

// publishTx signs the publish of a preloaded article by its owner, the
// article's index modulo the user count.
func publishTx(in *inputs, i int, nonce uint64) (*ledger.Tx, error) {
	a := in.articles[i]
	payload, err := supplychain.PublishRefPayload(a.id, a.topic, a.cid, len(a.text), nil, "")
	if err != nil {
		return nil, err
	}
	return ledger.NewTx(in.users[i%len(in.users)].kp, nonce, "news.publish", payload)
}

func mintTx(authority *keys.KeyPair, nonce uint64, to *user) (*ledger.Tx, error) {
	payload, err := ranking.MintPayload(to.kp.Address(), mintBudget)
	if err != nil {
		return nil, err
	}
	return ledger.NewTx(authority, nonce, "rank.mint", payload)
}

// preloadTxs signs the whole preload — one mint per user, then one
// publish per article — in submission order, on every core.
func preloadTxs(in *inputs) ([]*ledger.Tx, error) {
	authority := keys.FromSeed([]byte(authoritySeed))
	nu := len(in.users)
	txs := make([]*ledger.Tx, nu+len(in.articles))
	errs := make([]error, len(txs))
	var wg sync.WaitGroup
	const stripes = 8
	for s := 0; s < stripes; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := s; k < len(txs); k += stripes {
				if k < nu {
					txs[k], errs[k] = mintTx(authority, uint64(k), in.users[k])
				} else {
					i := k - nu
					txs[k], errs[k] = publishTx(in, i, uint64(i/nu))
				}
			}
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for i, u := range in.users {
		// Articles i, i+nu, i+2nu, ... belong to user i.
		u.nonce = uint64((len(in.articles) - i + nu - 1) / nu)
	}
	return txs, nil
}

// preloadInProcess builds a durable data directory holding the preload
// and a checkpoint of it, through the platform's own public API. The
// daemon then boots from the checkpoint.
func preloadInProcess(dir string, in *inputs, txs []*ledger.Tx) error {
	p, closeFn, err := platform.Open(dir, platform.DefaultConfig())
	if err != nil {
		return err
	}
	defer closeFn()
	for _, a := range in.articles[:in.bodies] {
		if _, err := p.Blobs().PutString(a.text); err != nil {
			return fmt.Errorf("preload blob %s: %w", a.id, err)
		}
	}
	for i, tx := range txs {
		if err := p.Submit(tx); err != nil {
			return fmt.Errorf("preload submit %d: %w", i, err)
		}
		if (i+1)%512 == 0 {
			if err := p.CommitAll(); err != nil {
				return err
			}
		}
	}
	if err := p.CommitAll(); err != nil {
		return err
	}
	p.FlushSearch()
	if got := p.Graph().Len(); got != len(in.articles) {
		return fmt.Errorf("preload: %d articles on chain, want %d", got, len(in.articles))
	}
	return p.WriteCheckpoint()
}

// preloadHTTP drives the same preload through the target node's public
// API on conns connections, then waits until every transaction is
// committed and indexed.
func preloadHTTP(base string, in *inputs, txs []*ledger.Tx, conns int) error {
	nu := len(in.users)
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = newWorker(i).hc
		defer clients[i].CloseIdleConnections()
	}
	// Mints share the authority's nonce sequence: one connection, in order.
	for _, tx := range txs[:nu] {
		if _, err := submitTx(clients[0], base, tx); err != nil {
			return fmt.Errorf("preload mint: %w", err)
		}
	}
	// Bodies first, so that no publish refers to a body not yet stored;
	// then the publishes, each connection owning the users congruent to it,
	// because a user's transactions must arrive in nonce order.
	each := func(fn func(c, i int) error) error {
		errs := make([]error, conns)
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range in.articles {
					if (i%nu)%conns == c && errs[c] == nil {
						errs[c] = fn(c, i)
					}
				}
			}(c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	err := each(func(c, i int) error {
		if i >= in.bodies {
			return nil
		}
		a := in.articles[i]
		cid, err := uploadBlob(clients[c], base, a.text)
		if err == nil && cid != a.cid {
			err = fmt.Errorf("node returned cid %s, computed %s", cid, a.cid)
		}
		if err != nil {
			return fmt.Errorf("preload body of %s: %w", a.id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = each(func(c, i int) error {
		if _, err := submitTx(clients[c], base, txs[nu+i]); err != nil {
			return fmt.Errorf("preload article %s: %w", in.articles[i].id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, err := getHealthz(clients[0], base)
		if err == nil && h.Height > 0 && h.MempoolDepth == 0 && h.IndexerLagDocs == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("preload did not commit within 60s (height %d, mempool %d, index lag %d, err %v)",
				h.Height, h.MempoolDepth, h.IndexerLagDocs, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

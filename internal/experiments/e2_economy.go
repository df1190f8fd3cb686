package experiments

import (
	"math/rand"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/platform"
	"repro/internal/ranking"
)

// e2Config sizes the ecosystem-economy experiment (Fig. 2).
type e2Config struct {
	Epochs        int
	ItemsPerEpoch int
	Honest        int
	Biased        int
	Seed          int64
}

// defaultE2 returns the standard configuration.
func defaultE2() e2Config {
	return e2Config{Epochs: 10, ItemsPerEpoch: 6, Honest: 6, Biased: 4, Seed: 2}
}

// runE2 simulates the Fig. 2 ecosystem economy: creators publish factual
// and fake items; honest and biased fact-checkers stake votes; the
// platform resolves with ground truth. The table tracks token balances
// and reputations per cohort over epochs — the incentive claim is that
// honest participation accumulates tokens while coordinated bias bleeds
// them.
func runE2(cfg e2Config) (*Table, error) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := corpus.NewGenerator(cfg.Seed)
	const initial = 1000

	creator := p.NewActor("e2-creator")
	honest := make([]*platform.Actor, cfg.Honest)
	biased := make([]*platform.Actor, cfg.Biased)
	for i := range honest {
		honest[i] = p.NewActor("e2-honest" + strconv.Itoa(i))
		if err := p.MintTo(honest[i].Address(), initial); err != nil {
			return nil, err
		}
	}
	for i := range biased {
		biased[i] = p.NewActor("e2-biased" + strconv.Itoa(i))
		if err := p.MintTo(biased[i].Address(), initial); err != nil {
			return nil, err
		}
	}

	t := &Table{
		Title:  "Ecosystem economy (Fig. 2): cohort balances over epochs",
		Claim:  "economic incentives reward honest flagging and drain coordinated bias",
		Header: []string{"epoch", "honest_avg_bal", "biased_avg_bal", "honest_avg_rep", "biased_avg_rep"},
	}
	avgBal := func(as []*platform.Actor) float64 {
		var sum uint64
		for _, a := range as {
			b, err := a.Balance()
			if err == nil {
				sum += b
			}
		}
		return float64(sum) / float64(len(as))
	}
	avgRep := func(as []*platform.Actor) float64 {
		var sum float64
		for _, a := range as {
			r, err := ranking.Reputation(p.Engine(), keys.Address{}, a.Address())
			if err == nil {
				sum += r
			}
		}
		return float64(sum) / float64(len(as))
	}
	t.AddRow("0", f1(avgBal(honest)), f1(avgBal(biased)), f3(avgRep(honest)), f3(avgRep(biased)))

	item := 0
	for e := 1; e <= cfg.Epochs; e++ {
		for i := 0; i < cfg.ItemsPerEpoch; i++ {
			isFactual := rng.Float64() < 0.5
			var s corpus.Statement
			if isFactual {
				s = gen.Factual()
			} else {
				s = gen.Fabricate()
			}
			id := "e2-item" + strconv.Itoa(item)
			item++
			if err := creator.PublishNews(id, s.Topic, s.Text, nil, ""); err != nil {
				return nil, err
			}
			for _, v := range honest {
				ag := ranking.Agent{Kind: ranking.VoterHonest, Accuracy: 0.92}
				if err := v.Vote(id, ag.Decide(isFactual, rng), 10); err != nil {
					return nil, err
				}
			}
			for _, v := range biased {
				if err := v.Vote(id, !isFactual, 10); err != nil {
					return nil, err
				}
			}
			// The platform resolves with ground truth (the experiment's
			// oracle; in production this is the combined ranking).
			if err := resolveAsAuthority(p, id, isFactual); err != nil {
				return nil, err
			}
		}
		t.AddRow(d(e), f1(avgBal(honest)), f1(avgBal(biased)), f3(avgRep(honest)), f3(avgRep(biased)))
	}
	return t, nil
}

// resolveAsAuthority resolves an item with a known verdict through the
// platform authority.
func resolveAsAuthority(p *platform.Platform, itemID string, factual bool) error {
	payload, err := ranking.ResolvePayload(itemID, factual)
	if err != nil {
		return err
	}
	return p.SubmitAuthority("rank.resolve", payload)
}

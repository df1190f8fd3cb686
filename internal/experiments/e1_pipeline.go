package experiments

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/aidetect"
	"repro/internal/corpus"
	"repro/internal/platform"
	"repro/internal/ranking"
)

// e1Config sizes the platform-pipeline experiment (Fig. 1).
type e1Config struct {
	Items  int // news items pushed through the full pipeline
	Voters int
	Seed   int64
}

// defaultE1 returns the paper-scale defaults.
func defaultE1() e1Config { return e1Config{Items: 50, Voters: 8, Seed: 1} }

// runE1 drives the Fig. 1 architecture end to end — publish → AI score →
// crowd vote → resolve+commit — and reports per-stage cost and total
// throughput.
func runE1(cfg e1Config) (*Table, error) {
	p, err := platform.New(platform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	gen := corpus.NewGenerator(cfg.Seed)
	train := gen.Generate(400, 400)
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), train.Statements); err != nil {
		return nil, err
	}
	// Seed a factual base.
	for i := 0; i < 50; i++ {
		s := gen.Factual()
		if err := p.SeedFact(s.ID, s.Topic, s.Text); err != nil {
			return nil, err
		}
	}
	voters := make([]*platform.Actor, cfg.Voters)
	for i := range voters {
		voters[i] = p.NewActor("e1-voter" + strconv.Itoa(i))
		if err := p.MintTo(voters[i].Address(), 1<<20); err != nil {
			return nil, err
		}
	}
	publisher := p.NewActor("e1-publisher")

	var tPublish, tRank, tVote, tResolve time.Duration
	start := time.Now()
	for i := 0; i < cfg.Items; i++ {
		s := gen.Factual()
		id := "e1-item" + strconv.Itoa(i)

		t0 := time.Now()
		if err := publisher.PublishNews(id, s.Topic, s.Text, nil, ""); err != nil {
			return nil, err
		}
		tPublish += time.Since(t0)

		t0 = time.Now()
		if _, err := p.RankItem(id, ranking.MechanismAIOnly); err != nil {
			return nil, err
		}
		tRank += time.Since(t0)

		t0 = time.Now()
		for _, v := range voters {
			if err := v.Vote(id, true, 10); err != nil {
				return nil, err
			}
		}
		tVote += time.Since(t0)

		t0 = time.Now()
		if _, err := p.ResolveByRanking(id); err != nil {
			return nil, err
		}
		tResolve += time.Since(t0)
	}
	total := time.Since(start)

	t := &Table{
		Title:  "Platform pipeline (Fig. 1): per-stage cost",
		Claim:  "the integrated AI+blockchain pipeline is practical end to end",
		Header: []string{"stage", "ops", "total_ms", "us_per_op"},
	}
	n := cfg.Items
	add := func(stage string, ops int, dt time.Duration) {
		t.AddRow(stage, d(ops), f1(float64(dt.Milliseconds())),
			f1(float64(dt.Microseconds())/float64(ops)))
	}
	add("publish+commit", n, tPublish)
	add("ai_score", n, tRank)
	add("crowd_vote", n*cfg.Voters, tVote)
	add("resolve+promote", n, tResolve)
	t.AddRow("TOTAL", d(n), f1(float64(total.Milliseconds())),
		f1(float64(total.Microseconds())/float64(n)))
	t.AddRow("throughput_items_per_s", "", fmt.Sprintf("%.0f", float64(n)/total.Seconds()), "")
	return t, nil
}

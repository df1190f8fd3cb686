package platform

import (
	"strconv"
	"testing"

	"repro/internal/aidetect"
	"repro/internal/corpus"
)

// This file holds the grand integration scenario: one platform instance
// exercising every mechanism the paper describes, in the order its
// ecosystem would — official records, journalism, propagation, attack,
// detection, crowd verification, settlement, promotion, expert discovery.
// It is the closest thing to "running the paper".

func TestGrandScenario(t *testing.T) {
	p := newPlatform(t)
	gen := corpus.NewGenerator(99)
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), gen.Generate(500, 500).Statements); err != nil {
		t.Fatal(err)
	}

	// 1. Official records seed the factual database.
	facts := make([]corpus.Statement, 0, 10)
	for i := 0; i < 10; i++ {
		s := gen.Factual()
		facts = append(facts, s)
		if err := p.SeedFact(s.ID, s.Topic, s.Text); err != nil {
			t.Fatal(err)
		}
	}

	// 2. A journalist reports; readers relay.
	journo := p.NewActor("scenario-journalist")
	if err := journo.PublishNews("report", facts[0].Topic, facts[0].Text, nil, ""); err != nil {
		t.Fatal(err)
	}
	readers := make([]*Actor, 6)
	for i := range readers {
		readers[i] = p.NewActor("scenario-reader" + strconv.Itoa(i))
		if err := p.MintTo(readers[i].Address(), 500); err != nil {
			t.Fatal(err)
		}
	}
	if err := readers[0].Relay("relay-1", "report"); err != nil {
		t.Fatal(err)
	}

	// 3. A troll derives a hoax from the relay and spreads it. The edit is
	// substantial: an emotional insertion compounded with a negation (a
	// light single edit is not condemnable by AI+trace alone before any
	// crowd votes arrive — see TestRankItemCombinesSignals for that case).
	troll := p.NewActor("scenario-troll")
	step1 := gen.Modify(facts[0], corpus.OpInsert)
	hoax := gen.Modify(corpus.Statement{ID: "tmp", Topic: step1.Topic, Text: step1.Text}, corpus.OpNegate)
	if err := troll.PublishNews("hoax", hoax.Topic, hoax.Text, []string{"relay-1"}, corpus.OpInsert); err != nil {
		t.Fatal(err)
	}
	if err := readers[1].Relay("hoax-relay", "hoax"); err != nil {
		t.Fatal(err)
	}

	// 4. The platform ranks both; the hoax is flagged and its originator
	// identified.
	realRank, err := p.RankItem("relay-1", "combined")
	if err != nil {
		t.Fatal(err)
	}
	hoaxRank, err := p.RankItem("hoax-relay", "combined")
	if err != nil {
		t.Fatal(err)
	}
	if !realRank.Factual || hoaxRank.Factual {
		t.Fatalf("verdicts: real=%+v hoax=%+v", realRank, hoaxRank)
	}
	if hoaxRank.Trace.Originator != troll.Address().String() {
		t.Fatalf("originator=%s want troll", hoaxRank.Trace.Originator)
	}

	// 5. Readers stake on both items; the platform resolves; correct
	// voters profit, wrong voters lose stake and reputation.
	for i, r := range readers {
		verdictOnHoax := false
		if i == 5 {
			verdictOnHoax = true // one gullible reader
		}
		if err := r.Vote("hoax-relay", verdictOnHoax, 50); err != nil {
			t.Fatal(err)
		}
		if err := r.Vote("relay-1", true, 50); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ResolveByRanking("hoax-relay"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ResolveByRanking("relay-1"); err != nil {
		t.Fatal(err)
	}
	correctBal, _ := readers[0].Balance()
	gullibleBal, _ := readers[5].Balance()
	if correctBal <= gullibleBal {
		t.Fatalf("economy inverted: correct=%d gullible=%d", correctBal, gullibleBal)
	}
	gullibleRep, _ := readers[5].Reputation()
	if gullibleRep >= 1.0 {
		t.Fatalf("gullible reputation=%f; must drop", gullibleRep)
	}

	// 6. A new factual statement, verified by the crowd, is promoted into
	// the factual database — the DB grows.
	fresh := gen.Factual()
	if err := journo.PublishNews("fresh", fresh.Topic, fresh.Text, nil, ""); err != nil {
		t.Fatal(err)
	}
	for _, r := range readers[:5] {
		if err := r.Vote("fresh", true, 10); err != nil {
			t.Fatal(err)
		}
	}
	before := p.FactIndex().Len()
	if _, err := p.ResolveByRanking("fresh"); err != nil {
		t.Fatal(err)
	}
	if p.FactIndex().Len() != before+1 {
		t.Fatalf("fresh fact not promoted: %d -> %d", before, p.FactIndex().Len())
	}

	// 7. Expert discovery ranks the journalist above the troll.
	experts, err := p.Experts(facts[0].Topic, 10)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, es := range experts {
		rank[es.Account] = i + 1
	}
	jr, tr := rank[journo.Address().String()], rank[troll.Address().String()]
	if jr == 0 {
		t.Fatal("journalist absent from expert list")
	}
	if tr != 0 && tr < jr {
		t.Fatalf("troll (%d) outranks journalist (%d)", tr, jr)
	}

	// 8. The ledger records everything: every account's actions are
	// attributable and the chain is internally consistent.
	if p.Chain().Height() == 0 {
		t.Fatal("empty chain")
	}
	stats, err := p.Graph().Stats()
	if err != nil || stats.Items != 5 || stats.Roots != 2 {
		t.Fatalf("graph stats=%+v", stats)
	}
}

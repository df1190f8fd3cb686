package trustnews

import (
	"strconv"
	"testing"
)

// TestPublicAPIQuickstart exercises the exported facade the way the
// quickstart example does: a downstream user should need nothing from
// internal/ packages for the core flow.
func TestPublicAPIQuickstart(t *testing.T) {
	p, err := NewPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := NewCorpusGenerator(1)
	if err := p.TrainClassifier(NewLogisticRegression(), gen.Generate(300, 300).Statements); err != nil {
		t.Fatal(err)
	}
	const fact = "the parliament ratified the border treaty in a public session"
	if err := p.SeedFact("fact-1", TopicPolitics, fact); err != nil {
		t.Fatal(err)
	}
	journalist := p.NewActor("journalist")
	if err := journalist.PublishNews("real", TopicPolitics, fact, nil, ""); err != nil {
		t.Fatal(err)
	}
	troll := p.NewActor("troll")
	doctored := "SHOCKING the parliament secretly rejected the border treaty wake up sheeple"
	if err := troll.PublishNews("doctored", TopicPolitics, doctored, []string{"real"}, OpNegate); err != nil {
		t.Fatal(err)
	}
	realRank, err := p.RankItem("real", MechanismCombined)
	if err != nil {
		t.Fatal(err)
	}
	fakeRank, err := p.RankItem("doctored", MechanismCombined)
	if err != nil {
		t.Fatal(err)
	}
	if !realRank.Factual || fakeRank.Factual {
		t.Fatalf("verdicts wrong: real=%+v fake=%+v", realRank, fakeRank)
	}
	if fakeRank.Trace.Originator == "" {
		t.Fatal("originator not identified through public API")
	}
}

// TestPublicAPISocial exercises the social-simulation surface.
func TestPublicAPISocial(t *testing.T) {
	cfg := DefaultSocialConfig()
	cfg.Users, cfg.Bots, cfg.Cyborgs = 400, 30, 20
	net, err := NewSocialNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Spread(ItemFake, net.BotSeeds(4), DefaultSpreadParams(), 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached < 4 || res.Reached > net.Size() {
		t.Fatalf("reached=%d", res.Reached)
	}
}

// TestPublicAPIEconomy exercises voting, resolution and settlement.
func TestPublicAPIEconomy(t *testing.T) {
	p, err := NewPlatform(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const fact = "the central bank raised the interest rate per the published minutes"
	if err := p.SeedFact("fact-1", TopicEconomy, fact); err != nil {
		t.Fatal(err)
	}
	pub := p.NewActor("pub")
	if err := pub.PublishNews("item", TopicEconomy, fact, nil, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v := p.NewActor("voter" + strconv.Itoa(i))
		if err := p.MintTo(v.Address(), 100); err != nil {
			t.Fatal(err)
		}
		if err := v.Vote("item", true, 10); err != nil {
			t.Fatal(err)
		}
	}
	rank, err := p.ResolveByRanking("item")
	if err != nil {
		t.Fatal(err)
	}
	if !rank.Factual {
		t.Fatalf("rank=%+v", rank)
	}
	v0 := p.NewActor("voter0")
	rep, err := v0.Reputation()
	if err != nil {
		t.Fatal(err)
	}
	if rep <= 1.0 {
		t.Fatalf("rep=%f; correct voter must gain", rep)
	}
}

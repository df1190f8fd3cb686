// Package trustnews is the public API of the AI Blockchain Platform for
// Trusting News — a from-scratch Go reproduction of Shae & Tsai (ICDCS
// 2019). It re-exports the platform facade and the building blocks a
// downstream user needs:
//
//   - Platform / Actor: the trusting-news node and its client handle
//     (identity registry, factual database, news supply chain, staked
//     crowd ranking, newsrooms, media provenance — all smart contracts
//     over a validated chain).
//   - Ranking mechanisms: the paper's combined AI+trace+crowd ranking and
//     the majority/AI-only/trace-only baselines.
//   - Corpus: the synthetic labelled news generator (see DESIGN.md for
//     the data substitution rationale).
//   - Social: the follower-network cascade simulator with bots and
//     platform interventions.
//
// A multi-validator deployment is not built through this package: run
// cmd/trustnewsd with -node-id and -peers, one process per validator.
//
// See examples/quickstart for a five-minute tour.
package trustnews

import (
	"repro/internal/aidetect"
	"repro/internal/corpus"
	"repro/internal/factdb"
	"repro/internal/identity"
	"repro/internal/platform"
	"repro/internal/ranking"
	"repro/internal/social"
	"repro/internal/supplychain"
)

// Platform types.
type (
	// Platform is one trusting-news node (Fig. 1 of the paper).
	Platform = platform.Platform
	// Config tunes a platform node.
	Config = platform.Config
	// Actor is a client handle bound to one key pair.
	Actor = platform.Actor
	// ItemRank is the transparent ranking output for one news item.
	ItemRank = platform.ItemRank
	// MediaCheck is the media-provenance verification outcome.
	MediaCheck = platform.MediaCheck
)

// NewPlatform creates a standalone trusting-news node.
func NewPlatform(cfg Config) (*Platform, error) { return platform.New(cfg) }

// DefaultConfig returns the standard platform configuration.
func DefaultConfig() Config { return platform.DefaultConfig() }

// Identity roles (the five ecosystem participants of Fig. 2).
const (
	RoleConsumer    = identity.RoleConsumer
	RoleCreator     = identity.RoleCreator
	RoleFactChecker = identity.RoleFactChecker
	RoleAIDeveloper = identity.RoleAIDeveloper
	RolePublisher   = identity.RolePublisher
)

// Ranking mechanisms (experiment E5 compares them).
const (
	MechanismMajority  = ranking.MechanismMajority
	MechanismAIOnly    = ranking.MechanismAIOnly
	MechanismTraceOnly = ranking.MechanismTraceOnly
	MechanismCombined  = ranking.MechanismCombined
)

// News modification operators (§VI of the paper).
const (
	OpMix      = corpus.OpMix
	OpSplit    = corpus.OpSplit
	OpMerge    = corpus.OpMerge
	OpInsert   = corpus.OpInsert
	OpDistort  = corpus.OpDistort
	OpNegate   = corpus.OpNegate
	OpVerbatim = corpus.OpVerbatim
)

// Topics covered by the synthetic corpus.
const (
	TopicPolitics = corpus.TopicPolitics
	TopicEconomy  = corpus.TopicEconomy
	TopicHealth   = corpus.TopicHealth
	TopicScience  = corpus.TopicScience
	TopicSports   = corpus.TopicSports
)

// Corpus types and constructors.
type (
	// CorpusGenerator produces deterministic labelled statements.
	CorpusGenerator = corpus.Generator
	// Statement is one labelled news item.
	Statement = corpus.Statement
)

// NewCorpusGenerator seeds a deterministic statement generator.
func NewCorpusGenerator(seed int64) *CorpusGenerator { return corpus.NewGenerator(seed) }

// AI detection components.
type (
	// TextClassifier scores text for fakeness.
	TextClassifier = aidetect.TextClassifier
	// MediaDetector is the blind tamper detector.
	MediaDetector = aidetect.MediaDetector
)

// NewNaiveBayes creates the naive Bayes fake-text classifier.
func NewNaiveBayes() *aidetect.NaiveBayes { return aidetect.NewNaiveBayes() }

// NewLogisticRegression creates the logistic-regression classifier.
func NewLogisticRegression() *aidetect.LogisticRegression { return aidetect.NewLogisticRegression() }

// Supply-chain types.
type (
	// TraceResult is the factual trace-back outcome for a news item.
	TraceResult = supplychain.TraceResult
	// ExpertScore ranks an account's topic expertise from the ledger.
	ExpertScore = supplychain.ExpertScore
	// NewsItem is one node of the news supply-chain graph.
	NewsItem = supplychain.Item
)

// Factual-database types.
type (
	// Fact is one ground-truth record.
	Fact = factdb.Fact
	// FactMatch is a similarity hit against the factual database.
	FactMatch = factdb.Match
)

// Social-simulation types and constructors.
type (
	// SocialConfig describes the follower network to generate.
	SocialConfig = social.Config
	// SocialNetwork is the follower graph with bots and cyborgs.
	SocialNetwork = social.Network
	// SpreadParams tunes the cascade model.
	SpreadParams = social.SpreadParams
	// SpreadResult is a cascade trace.
	SpreadResult = social.SpreadResult
)

// Spreading item kinds for SocialNetwork.Spread.
const (
	ItemFactual = social.ItemFactual
	ItemFake    = social.ItemFake
)

// NewSocialNetwork generates a follower network.
func NewSocialNetwork(cfg SocialConfig) (*SocialNetwork, error) { return social.NewNetwork(cfg) }

// DefaultSocialConfig returns a moderate network configuration.
func DefaultSocialConfig() SocialConfig { return social.DefaultConfig() }

// DefaultSpreadParams returns the standard cascade parameters.
func DefaultSpreadParams() SpreadParams { return social.DefaultSpreadParams() }

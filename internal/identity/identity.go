// Package identity implements the verified-identity registry of the
// trusting-news platform as a smart contract.
//
// The paper requires that "identification verified persons" create content
// and comments (§V), and that the ecosystem distinguish five roles: news
// consumers, content creators, news fact checkers, fake-news detection AI
// code developers, and media publishers (Fig. 2). Accounts self-register
// with a requested role and become active once approved by an already-
// verified publisher or by the genesis authority; every action on the
// platform checks the registry, which is what binds ledger accountability
// to real identities.
package identity

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/contract"
	"repro/internal/keys"
	"repro/internal/store"
)

// ContractName routes identity transactions.
const ContractName = "identity"

// Role is a participant's function in the ecosystem (paper Fig. 2).
type Role string

// Ecosystem roles.
const (
	RoleConsumer    Role = "consumer"
	RoleCreator     Role = "creator"     // journalists / content creators
	RoleFactChecker Role = "factchecker" // news fact checkers
	RoleAIDeveloper Role = "aideveloper" // fake-news detection AI developers
	RolePublisher   Role = "publisher"   // media publishers
)

// validRoles is the closed set of acceptable roles.
var validRoles = map[Role]bool{
	RoleConsumer:    true,
	RoleCreator:     true,
	RoleFactChecker: true,
	RoleAIDeveloper: true,
	RolePublisher:   true,
}

// Status of a registered account.
type Status string

// Account statuses.
const (
	StatusPending  Status = "pending"
	StatusVerified Status = "verified"
	StatusRevoked  Status = "revoked"
)

// Errors surfaced by contract execution (wrapped into receipts).
var (
	// ErrBadRole indicates an unknown role string.
	ErrBadRole = errors.New("identity: unknown role")
	// ErrAlreadyRegistered indicates a duplicate registration.
	ErrAlreadyRegistered = errors.New("identity: already registered")
	// ErrNotRegistered indicates an account with no registry entry.
	ErrNotRegistered = errors.New("identity: not registered")
	// ErrNotAuthorized indicates a verifier without authority.
	ErrNotAuthorized = errors.New("identity: not authorized")
)

// Record is one account's registry entry.
type Record struct {
	Addr       string `json:"addr"`
	Name       string `json:"name"`
	Role       Role   `json:"role"`
	Status     Status `json:"status"`
	VerifiedBy string `json:"verifiedBy,omitempty"`
	Height     uint64 `json:"height"`
}

// registerArgs is the payload of identity.register.
type registerArgs struct {
	Name string `json:"name"`
	Role Role   `json:"role"`
}

// actArgs is the payload of identity.verify / identity.revoke.
type actArgs struct {
	Target string `json:"target"`
}

// Contract is the identity registry chaincode. Genesis is the address
// allowed to verify accounts before any publisher exists.
type Contract struct {
	Genesis keys.Address
}

var _ contract.Contract = (*Contract)(nil)

// Name implements contract.Contract.
func (c *Contract) Name() string { return ContractName }

// Execute implements contract.Contract.
func (c *Contract) Execute(ctx *contract.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "register":
		return c.register(ctx, args)
	case "verify":
		return c.setStatus(ctx, args, StatusVerified)
	case "revoke":
		return c.setStatus(ctx, args, StatusRevoked)
	case "get":
		return c.get(ctx, args)
	case "list":
		return c.list(ctx)
	default:
		return nil, fmt.Errorf("%w: identity.%s", contract.ErrUnknownMethod, method)
	}
}

func (c *Contract) register(ctx *contract.Context, args []byte) ([]byte, error) {
	var in registerArgs
	if err := json.Unmarshal(args, &in); err != nil {
		return nil, fmt.Errorf("identity: register args: %w", err)
	}
	if !validRoles[in.Role] {
		return nil, fmt.Errorf("%w: %q", ErrBadRole, in.Role)
	}
	key := "acct/" + ctx.Sender.String()
	if ok, err := ctx.Has(key); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyRegistered, ctx.Sender.Short())
	}
	rec := Record{
		Addr:   ctx.Sender.String(),
		Name:   in.Name,
		Role:   in.Role,
		Status: StatusPending,
		Height: ctx.Height,
	}
	// Consumers are auto-verified: the paper's platform is open to the
	// general population as readers and rankers; only content-producing
	// and governance roles need vetting.
	if in.Role == RoleConsumer {
		rec.Status = StatusVerified
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("identity: marshal: %w", err)
	}
	if err := ctx.Put(key, raw); err != nil {
		return nil, err
	}
	if err := ctx.Emit("registered", map[string]string{
		"addr": rec.Addr, "role": string(rec.Role), "status": string(rec.Status),
	}); err != nil {
		return nil, err
	}
	return raw, nil
}

func (c *Contract) setStatus(ctx *contract.Context, args []byte, s Status) ([]byte, error) {
	var in actArgs
	if err := json.Unmarshal(args, &in); err != nil {
		return nil, fmt.Errorf("identity: args: %w", err)
	}
	if err := c.requireAuthority(ctx); err != nil {
		return nil, err
	}
	key := "acct/" + in.Target
	raw, err := ctx.Get(key)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotRegistered, in.Target)
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("identity: unmarshal: %w", err)
	}
	rec.Status = s
	rec.VerifiedBy = ctx.Sender.String()
	out, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("identity: marshal: %w", err)
	}
	if err := ctx.Put(key, out); err != nil {
		return nil, err
	}
	event := "verified"
	if s == StatusRevoked {
		event = "revoked"
	}
	if err := ctx.Emit(event, map[string]string{"addr": rec.Addr, "by": ctx.Sender.String()}); err != nil {
		return nil, err
	}
	return out, nil
}

// requireAuthority allows genesis or any verified publisher to act.
func (c *Contract) requireAuthority(ctx *contract.Context) error {
	if ctx.Sender == c.Genesis {
		return nil
	}
	raw, err := ctx.Get("acct/" + ctx.Sender.String())
	if err != nil {
		return fmt.Errorf("%w: verifier %s", ErrNotAuthorized, ctx.Sender.Short())
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("identity: unmarshal verifier: %w", err)
	}
	if rec.Role != RolePublisher || rec.Status != StatusVerified {
		return fmt.Errorf("%w: %s is %s/%s", ErrNotAuthorized, ctx.Sender.Short(), rec.Role, rec.Status)
	}
	return nil
}

func (c *Contract) get(ctx *contract.Context, args []byte) ([]byte, error) {
	raw, err := ctx.Get("acct/" + string(args))
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNotRegistered, string(args))
	}
	return raw, nil
}

func (c *Contract) list(ctx *contract.Context) ([]byte, error) {
	ks, err := ctx.Keys("acct/")
	if err != nil {
		return nil, err
	}
	recs := make([]Record, 0, len(ks))
	for _, k := range ks {
		raw, err := ctx.Get(k)
		if err != nil {
			return nil, err
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("identity: unmarshal %s: %w", k, err)
		}
		recs = append(recs, rec)
	}
	return json.Marshal(recs)
}

// ---------------------------------------------------------------------------
// Client helpers: payload builders and query decoding.
// ---------------------------------------------------------------------------

// RegisterPayload builds the identity.register payload.
func RegisterPayload(name string, role Role) ([]byte, error) {
	return json.Marshal(registerArgs{Name: name, Role: role})
}

// ActPayload builds identity.verify / identity.revoke payloads.
func ActPayload(target keys.Address) ([]byte, error) {
	return json.Marshal(actArgs{Target: target.String()})
}

// Lookup queries an account record through the engine.
func Lookup(e *contract.Engine, addr keys.Address) (Record, error) {
	raw, err := e.Query(addr, ContractName+".get", []byte(addr.String()))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return Record{}, ErrNotRegistered
		}
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, fmt.Errorf("identity: decode record: %w", err)
	}
	return rec, nil
}

// IsVerified reports whether addr holds a verified account with the role.
func IsVerified(e *contract.Engine, addr keys.Address, role Role) bool {
	rec, err := Lookup(e, addr)
	if err != nil {
		return false
	}
	return rec.Status == StatusVerified && rec.Role == role
}

// All lists every registry record.
func All(e *contract.Engine, asker keys.Address) ([]Record, error) {
	raw, err := e.Query(asker, ContractName+".list", nil)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("identity: decode list: %w", err)
	}
	return recs, nil
}

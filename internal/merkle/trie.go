package merkle

import (
	"crypto/sha256"
	"errors"
	"math/bits"
	"slices"
)

// Trie is an authenticated map from string keys to byte values whose
// root costs O(writes · log n) to bring up to date instead of O(n): the
// contract engine keeps one over its state and folds each block's write
// set into it (contract.Engine.StateRoot).
//
// It is a binary crit-bit (Patricia) trie over sha256(key). Every branch
// has exactly two children and records the index of the first bit at
// which the key hashes below it differ, so the shape — and therefore the
// root — is a function of the key set alone: insertion order, deletions
// along the way and the executor that produced the writes cannot show.
//
//	leaf   = H(0x02 || sha256(key) || sha256(value))
//	branch = H(0x03 || bit as uint16 BE || left || right)
//	empty  = the zero Hash
//
// Put and Delete change structure only and mark the branches on their
// path stale; Root re-hashes each stale branch once. A block that writes
// one hot key many times, or many keys under one subtree, pays for the
// shared path once.
//
// A Trie is not safe for concurrent use.
type Trie struct {
	root *trieNode
}

// Domain-separation prefixes, distinct from the positional tree's so a
// trie node can never be replayed as a Tree node or the reverse.
const (
	trieLeafPrefix   = 0x02
	trieBranchPrefix = 0x03
)

// ErrNoSuchKey is returned by Prove for a key the trie does not hold.
var ErrNoSuchKey = errors.New("merkle: key not in trie")

type trieNode struct {
	hash  Hash         // leaf: its leaf hash; branch: valid unless stale
	key   Hash         // leaf only: sha256(key)
	child [2]*trieNode // branch only (nil marks a leaf)
	bit   uint16       // branch only: first bit where the subtrees differ
	stale bool         // branch only: hash must be recomputed
}

// NewTrie returns an empty trie.
func NewTrie() *Trie { return &Trie{} }

func trieLeafHash(kh *Hash, value []byte) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = trieLeafPrefix
	copy(buf[1:], kh[:])
	vh := sha256.Sum256(value)
	copy(buf[1+HashSize:], vh[:])
	return sha256.Sum256(buf[:])
}

func trieBranchHash(bit uint16, left, right *Hash) Hash {
	var buf [3 + 2*HashSize]byte
	buf[0] = trieBranchPrefix
	buf[1], buf[2] = byte(bit>>8), byte(bit)
	copy(buf[3:], left[:])
	copy(buf[3+HashSize:], right[:])
	return sha256.Sum256(buf[:])
}

// bitAt returns bit i of h, most significant bit of h[0] first.
func bitAt(h *Hash, i uint16) int { return int(h[i>>3]>>(7-i&7)) & 1 }

// firstDiffBit returns the index of the first bit at which a and b
// differ; ok is false when they are equal.
func firstDiffBit(a, b *Hash) (i uint16, ok bool) {
	for j := range a {
		if x := a[j] ^ b[j]; x != 0 {
			return uint16(j*8 + bits.LeadingZeros8(x)), true
		}
	}
	return 0, false
}

// nearest follows kh's bits down to a leaf: of all keys held, that
// leaf's shares the longest prefix with kh. The trie must not be empty.
func (t *Trie) nearest(kh *Hash) *trieNode {
	n := t.root
	for n.child[0] != nil {
		n = n.child[bitAt(kh, n.bit)]
	}
	return n
}

// Put sets key to value.
func (t *Trie) Put(key string, value []byte) {
	kh := Hash(sha256.Sum256([]byte(key)))
	leaf := trieLeafHash(&kh, value)
	if t.root == nil {
		t.root = &trieNode{hash: leaf, key: kh}
		return
	}
	near := t.nearest(&kh)
	crit, isNew := firstDiffBit(&kh, &near.key)
	if !isNew && near.hash == leaf {
		return
	}
	// Walk again, marking the path stale, down to near itself (an
	// overwrite) or to the first node that branches below crit: the new
	// leaf's branch takes that node's place, since everything under it
	// agrees with kh on every bit before crit and differs at crit.
	p := &t.root
	for (*p).child[0] != nil && (!isNew || (*p).bit < crit) {
		(*p).stale = true
		p = &(*p).child[bitAt(&kh, (*p).bit)]
	}
	if !isNew {
		(*p).hash = leaf
		return
	}
	branch := &trieNode{bit: crit, stale: true}
	dir := bitAt(&kh, crit)
	branch.child[dir] = &trieNode{hash: leaf, key: kh}
	branch.child[1-dir] = *p
	*p = branch
}

// Delete removes key; a key not held is a no-op.
func (t *Trie) Delete(key string) {
	if t.root == nil {
		return
	}
	kh := Hash(sha256.Sum256([]byte(key)))
	leaf := t.nearest(&kh)
	if leaf.key != kh {
		return
	}
	if t.root == leaf {
		t.root = nil
		return
	}
	// The leaf's branch goes with it: the sibling takes the branch's place.
	p := &t.root
	for {
		dir := bitAt(&kh, (*p).bit)
		if (*p).child[dir] == leaf {
			*p = (*p).child[1-dir]
			return
		}
		(*p).stale = true
		p = &(*p).child[dir]
	}
}

// Root brings every stale hash up to date and returns the root (the
// zero Hash for an empty trie).
func (t *Trie) Root() Hash {
	if t.root == nil {
		return Hash{}
	}
	return *t.root.rehash()
}

// rehash recurses at most 256 deep, one level per key-hash bit.
func (n *trieNode) rehash() *Hash {
	if n.stale {
		n.hash = trieBranchHash(n.bit, n.child[0].rehash(), n.child[1].rehash())
		n.stale = false
	}
	return &n.hash
}

// TrieProofStep is one branch on the path from a leaf to the root.
type TrieProofStep struct {
	// Bit is the branch's crit bit: the proven key's bit there says
	// whether Sibling hashes as the right (0) or left (1) operand.
	Bit     uint16 `json:"bit"`
	Sibling Hash   `json:"sibling"`
}

// TrieProof proves that a key maps to a value under a trie root: the
// sibling hash at every branch, leaf to root.
type TrieProof struct {
	Steps []TrieProofStep `json:"steps"`
}

// Prove builds the inclusion proof for key against the current Root.
func (t *Trie) Prove(key string) (TrieProof, error) {
	kh := Hash(sha256.Sum256([]byte(key)))
	if t.root == nil || t.nearest(&kh).key != kh {
		return TrieProof{}, ErrNoSuchKey
	}
	t.Root()
	var p TrieProof
	for n := t.root; n.child[0] != nil; {
		dir := bitAt(&kh, n.bit)
		p.Steps = append(p.Steps, TrieProofStep{Bit: n.bit, Sibling: n.child[1-dir].hash})
		n = n.child[dir]
	}
	slices.Reverse(p.Steps)
	return p, nil
}

// VerifyTrieProof checks that key maps to value under root according to
// p. Crit bits must strictly decrease toward the root, as they do in
// every trie Put builds; a proof that reorders or repeats branches is
// rejected before any hashing.
func VerifyTrieProof(root Hash, key string, value []byte, p TrieProof) error {
	kh := Hash(sha256.Sum256([]byte(key)))
	below := 8 * HashSize
	for _, s := range p.Steps {
		if int(s.Bit) >= below {
			return ErrProofInvalid
		}
		below = int(s.Bit)
	}
	h := trieLeafHash(&kh, value)
	for i := range p.Steps {
		s := &p.Steps[i]
		if bitAt(&kh, s.Bit) == 0 {
			h = trieBranchHash(s.Bit, &h, &s.Sibling)
		} else {
			h = trieBranchHash(s.Bit, &s.Sibling, &h)
		}
	}
	if h != root {
		return ErrProofInvalid
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"

	"stochstream/internal/streamd/wire"
)

// batchRef names one client batch: the session and the batch's index in
// that session's stream (its steps are [idx·batch, (idx+1)·batch)).
type batchRef struct{ sess, idx int }

// checker verifies every reply the daemon sends as it arrives, keeping only
// counts, the batch placement and (when asked) one digest per batch, so a
// run's memory does not grow with its pair count.
//
// Placement: the daemon numbers arrivals globally (2·step for R, 2·step+1
// for S) in the order its engine loop takes batches, and every batch has
// w.batch steps, so global step g belongs to global batch slot g/w.batch.
// Each pair's payloads name the session steps it joined; the checker holds
// the slot ↔ batch mapping this implies consistent across all pairs.
type checker struct {
	st *stream

	mu        sync.Mutex
	slotOwner []batchRef       // global slot → batch; sess −1 while unknown
	ownerSlot map[batchRef]int // batch → global slot
	digests   map[batchRef]uint64
	failed    int
	firstErr  error
	scratch   []byte
}

func newChecker(st *stream) *checker {
	return &checker{
		st:        st,
		ownerSlot: map[batchRef]int{},
		digests:   map[batchRef]uint64{},
		scratch:   make([]byte, st.w.payload),
	}
}

// check verifies the reply to batch b and returns its pair count. Any
// mismatch marks the batch failed. With digest set it also records the
// reply's digest for the traced run's replay comparison.
func (c *checker) check(b batchRef, pairs []wire.Pair, digest bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.verify(b, pairs); err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("batch %d of session %d: %w", b.idx, b.sess, err)
		}
	}
	if digest {
		c.digests[b] = digestWire(pairs)
	}
	return len(pairs)
}

func (c *checker) verify(b batchRef, pairs []wire.Pair) error {
	var prevTrigger, prevPartner uint64
	for i := range pairs {
		p := &pairs[i]
		if p.RKey != p.SKey {
			return fmt.Errorf("pair %d joins R key %d with S key %d", i, p.RKey, p.SKey)
		}
		if p.RSeq%2 != 0 || p.SSeq%2 != 1 {
			return fmt.Errorf("pair %d has R seq %d, S seq %d: wrong sides", i, p.RSeq, p.SSeq)
		}
		r, err := c.side(p.RPayload, p.RKey, p.RSeq, 0)
		if err != nil {
			return fmt.Errorf("pair %d R: %w", i, err)
		}
		s, err := c.side(p.SPayload, p.SKey, p.SSeq, 1)
		if err != nil {
			return fmt.Errorf("pair %d S: %w", i, err)
		}
		trigger, partner, tb := p.RSeq, p.SSeq, r
		if p.SSeq > p.RSeq {
			trigger, partner, tb = p.SSeq, p.RSeq, s
		}
		// Unpaired lane tails carry over, so a pair can be triggered by an
		// arrival of an earlier batch, never by a later one.
		if tb.sess == b.sess && tb.idx > b.idx {
			return fmt.Errorf("pair %d was triggered by later batch %d", i, tb.idx)
		}
		if i > 0 && (trigger < prevTrigger || trigger == prevTrigger && partner <= prevPartner) {
			return fmt.Errorf("pair %d breaks the (trigger, partner) merge order", i)
		}
		prevTrigger, prevPartner = trigger, partner
	}
	return nil
}

// side checks one side of a pair: the payload is the one generated for the
// tuple it names, that tuple has the pair's key, and its sequence number
// fits the batch placement seen so far. It returns the tuple's batch.
func (c *checker) side(payload []byte, key int64, seq uint64, wantSide int) (batchRef, error) {
	if len(payload) != c.st.w.payload {
		return batchRef{}, fmt.Errorf("payload of %d bytes, sent %d", len(payload), c.st.w.payload)
	}
	id := binary.BigEndian.Uint64(payload)
	sess, step, side := splitID(id)
	if side != wantSide || sess >= c.st.w.sessions || step >= c.st.n {
		return batchRef{}, fmt.Errorf("payload names no tuple sent on this side (id %#x)", id)
	}
	c.st.fillPayload(c.scratch, id)
	if !bytes.Equal(payload, c.scratch) {
		return batchRef{}, fmt.Errorf("payload of session %d step %d differs from the one sent", sess, step)
	}
	if want := int64(c.st.key(sess, step, side)); key != want {
		return batchRef{}, fmt.Errorf("session %d step %d carries key %d, sent %d", sess, step, key, want)
	}
	B := c.st.w.batch
	g := int(seq / 2)
	if g%B != step%B {
		return batchRef{}, fmt.Errorf("seq %d puts session %d step %d at batch offset %d", seq, sess, step, g%B)
	}
	b := batchRef{sess, step / B}
	slot := g / B
	for len(c.slotOwner) <= slot {
		c.slotOwner = append(c.slotOwner, batchRef{sess: -1})
	}
	if o := c.slotOwner[slot]; o.sess >= 0 && o != b {
		return batchRef{}, fmt.Errorf("seq %d: slot %d holds batch %d of session %d and batch %d of session %d", seq, slot, o.idx, o.sess, b.idx, b.sess)
	}
	if s, ok := c.ownerSlot[b]; ok && s != slot {
		return batchRef{}, fmt.Errorf("seq %d: batch %d of session %d at slots %d and %d", seq, b.idx, b.sess, s, slot)
	}
	c.slotOwner[slot] = b
	c.ownerSlot[b] = slot
	return b, nil
}

// order reconstructs the daemon's global batch order from the placement
// evidence: sent[s] batches went out on session s, in index order. A slot
// no pair anchored is filled by the only session whose next batch is also
// unanchored; two candidates make the order ambiguous, which is an error.
func (c *checker) order(sent []int) ([]batchRef, error) {
	total := 0
	for _, n := range sent {
		total += n
	}
	next := make([]int, len(sent))
	out := make([]batchRef, 0, total)
	for slot := 0; slot < total; slot++ {
		if slot < len(c.slotOwner) && c.slotOwner[slot].sess >= 0 {
			o := c.slotOwner[slot]
			if o.idx != next[o.sess] {
				return nil, fmt.Errorf("slot %d holds batch %d of session %d, expected its batch %d", slot, o.idx, o.sess, next[o.sess])
			}
			out = append(out, o)
			next[o.sess]++
			continue
		}
		pick := -1
		for s := range sent {
			if next[s] >= sent[s] {
				continue
			}
			if _, anchored := c.ownerSlot[batchRef{s, next[s]}]; anchored {
				continue
			}
			if pick >= 0 {
				return nil, fmt.Errorf("slot %d: batch order ambiguous between sessions %d and %d", slot, pick, s)
			}
			pick = s
		}
		if pick < 0 {
			return nil, fmt.Errorf("slot %d: no batch can fill it", slot)
		}
		out = append(out, batchRef{pick, next[pick]})
		next[pick]++
	}
	return out, nil
}

// digestWire hashes a reply's pairs in order, over every field the daemon
// derives from the runtime's output.
func digestWire(pairs []wire.Pair) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range pairs {
		p := &pairs[i]
		put(p.RSeq)
		put(p.SSeq)
		put(uint64(p.RKey))
		put(uint64(p.SKey))
		same := uint64(0)
		if p.SameStep {
			same = 1
		}
		put(uint64(p.Shard)<<1 | same)
		h.Write(p.RPayload)
		h.Write(p.SPayload)
	}
	return h.Sum64()
}

package coherence

import (
	"fmt"
	"math/bits"
	"slices"

	"tilesim/internal/cache"
	"tilesim/internal/noc"
	"tilesim/internal/sim"
	"tilesim/internal/stats"
)

// txnKind is the in-flight transaction context of a busy directory
// entry.
type txnKind uint8

const (
	txnNone   txnKind = iota
	txnFwdS           // waiting for the owner's Revision after FwdGetS
	txnFwdX           // waiting for the owner's Revision after FwdGetX
	txnFill           // waiting for memory (and possibly a victim recall)
	txnRecall         // the entry is the *victim* of an L2 recall
	txnGrant          // ownership granted, waiting for the requestor's OwnAck
)

// pendOp names the grant operation a fill transaction resumes with once
// the data lands in L2 (DESIGN.md §16: the prebound encoding of the old
// ensureData continuation closures).
const (
	opNone uint8 = iota
	opGrantS
	opGrantX
)

// dirEntry is the directory state of one block at its home. Entries
// live in the home's chunks, entryChunk to an allocation, and are
// pooled on the controller's freelist: release recycles empty ones and
// entry reuses them, so steady state allocates none. A block's entry is
// named by its L2 line's Aux when the block is in L2, else by the
// home's side list (DESIGN.md §16.8).
type dirEntry struct {
	sharers SharerSet // tiles with S copies (may be a superset); the entry's own words
	owner   int       // tile with the M/E copy, or -1
	block   uint64    // the tracked block

	busy   bool
	kind   txnKind
	queued int // requests for the block waiting in the home's queue

	// Context for the in-flight transaction.
	requestor  int
	reqType    noc.Type
	recallAcks int
	// pendingCloses counts the messages that must still arrive before
	// the transaction unbusies: the owner's Revision for interventions,
	// the requestor's OwnAck for ownership transfers (both for FwdGetX).
	pendingCloses int
	// Pending grant of a txnFill entry, dispatched when the fill lands.
	pendOp  uint8
	pendSrc int
	pendTxn uint64
	// fillFor is the block whose fill recalled this txnRecall victim;
	// the fill resumes once the last recall ack arrives.
	fillFor uint64

	// ref is the entry's fixed reference, its index in the home's
	// chunks plus one: the value a line's Aux or the side list holds (0
	// names nothing). next links the freelist by reference.
	ref, next uint32
}

func (e *dirEntry) empty() bool {
	return e.owner < 0 && !e.busy && e.queued == 0 && e.sharers.Empty()
}

// entryChunk is the number of directory entries, with their sharer
// words, that one pool growth allocates (DESIGN.md §16.8 has the
// measurements behind the size).
const entryChunk = 8

// dirChunk is one pool growth's entries. Entries are addressed by
// reference through their chunk (HomeController.at), so no entry
// pointer is ever stored.
type dirChunk [entryChunk]dirEntry

// HomeController is one tile's L2 slice plus the directory for the
// address partition it is home to.
type HomeController struct {
	p  *Protocol
	id int

	l2 *cache.Cache
	// chunks holds every directory entry; side references the entries
	// of blocks without an L2 line (waiting for a memory fill, or
	// recalled victims still draining their queues); free heads the
	// freelist of released entries (0 when empty).
	chunks []*dirChunk
	side   []uint32
	free   uint32
	// busyEntries counts dir entries with busy set, maintained by
	// setBusy so busyCount is O(1) — it runs on every drain check and
	// epoch-series sample, where a directory walk dominated the cost.
	busyEntries int
	// queue holds every request waiting on a busy entry, in arrival
	// order across blocks, like a home's request buffer in hardware; an
	// entry's queued counts its block's share. drain holds the requests
	// finishTxn is replaying. A replay can finish another transaction
	// and re-enter finishTxn, which compacts queue (no loop iterates
	// it), appends its segment to drain past the outer one, and
	// truncates drain back to its own start when done. Both keep their
	// storage for the rest of the run.
	queue []homeReq
	drain []homeReq

	// Statistics.
	Requests     stats.Counter
	L2Misses     stats.Counter
	MemFetches   stats.Counter
	Recalls      stats.Counter
	Forwards     stats.Counter
	InvsSent     stats.Counter
	QueuedAtHome stats.Counter
}

func newHomeController(p *Protocol, id int) *HomeController {
	l2cfg := cache.L2SliceConfig()
	// Blocks are home-interleaved on the page bits; within this slice
	// those bits are constant, so fold them out of the set index.
	l2cfg.IndexSkipLo = HomePageShift
	l2cfg.IndexSkipBits = bits.TrailingZeros(uint(p.cfg.Tiles))
	h := &HomeController{
		p:  p,
		id: id,
		l2: cache.New(l2cfg),
	}
	return h
}

// L2 exposes the slice array (stats, tests).
func (h *HomeController) L2() *cache.Cache { return h.l2 }

// at returns the entry that ref names.
func (h *HomeController) at(ref uint32) *dirEntry {
	i := ref - 1
	return &h.chunks[i/entryChunk][i%entryChunk]
}

// lookup returns block's directory entry (nil when the block is
// untracked) and its L2 line (nil when the block has none), probing
// the L2 set once: a line's Aux names its block's entry, and only a
// block without a line is searched for on the side list.
func (h *HomeController) lookup(block uint64) (*dirEntry, *cache.Line) {
	if line := h.l2.Probe(block); line != nil {
		if line.Aux == 0 {
			return nil, line
		}
		return h.at(line.Aux), line
	}
	for _, ref := range h.side {
		if e := h.at(ref); e.block == block {
			return e, nil
		}
	}
	return nil, nil
}

// entry is lookup that takes a pooled entry, and names it on the line
// or the side list, when the block is untracked.
//
//tilesim:pool
func (h *HomeController) entry(block uint64) (*dirEntry, *cache.Line) {
	e, line := h.lookup(block)
	if e != nil {
		return e, line
	}
	if h.free == 0 {
		h.grow()
	}
	e = h.at(h.free)
	h.free = e.next
	*e = dirEntry{sharers: e.sharers, owner: -1, block: block, ref: e.ref}
	if line != nil {
		line.Aux = e.ref
	} else {
		h.side = append(h.side, e.ref)
	}
	return e, line
}

// grow adds a chunk of entryChunk entries to the freelist, lowest
// reference first. The chunk's sharer words are one more allocation,
// entryChunk sets of sharerWords words each.
func (h *HomeController) grow() {
	w := sharerWords(h.p.cfg.Tiles)
	c, words := new(dirChunk), make([]uint64, entryChunk*w)
	h.chunks = append(h.chunks, c)
	base := uint32(len(h.chunks)-1) * entryChunk
	for i := entryChunk - 1; i >= 0; i-- {
		c[i].sharers = words[i*w : (i+1)*w : (i+1)*w]
		c[i].ref = base + uint32(i) + 1
		c[i].next = h.free
		h.free = c[i].ref
	}
}

// release recycles block's entry once it holds no state — the single
// release point of the directory-entry pool — dropping the reference
// that names it.
//
//tilesim:release
func (h *HomeController) release(block uint64, e *dirEntry) {
	if !e.empty() {
		return
	}
	if line := h.l2.Probe(block); line != nil {
		if line.Aux != e.ref {
			panic(fmt.Sprintf("coherence: home %d releasing entry %d of %#x, but its L2 line names %d", h.id, e.ref, block, line.Aux))
		}
		line.Aux = 0
	} else {
		h.unside(e.ref)
	}
	e.next = h.free
	h.free = e.ref
}

// unside drops ref from the side list.
func (h *HomeController) unside(ref uint32) {
	i := slices.Index(h.side, ref)
	if i < 0 {
		panic(fmt.Sprintf("coherence: home %d entry %d is on no line and not on the side list", h.id, ref))
	}
	last := len(h.side) - 1
	h.side[i] = h.side[last]
	h.side = h.side[:last]
}

// invalidateL2 drops a valid L2 line; the entry it named, if any, moves
// to the side list.
func (h *HomeController) invalidateL2(line *cache.Line) {
	if line.Aux != 0 {
		h.side = append(h.side, line.Aux)
	}
	h.l2.Invalidate(line.Block())
}

// setBusy transitions an entry's busy flag while maintaining the
// running busy-entry count. No-op transitions are tolerated: finishTxn
// clears a flag the fill path may already have cleared.
func (h *HomeController) setBusy(e *dirEntry, v bool) {
	if e.busy == v {
		return
	}
	e.busy = v
	if v {
		h.busyEntries++
	} else {
		h.busyEntries--
	}
}

// busyCount returns the number of busy directory entries. It reads the
// incrementally maintained count (TestBusyCountMatchesWalk cross-checks
// it against a directory walk) because it runs on every drain check and
// epoch-series sample, where walking — let alone sorting — the
// directory dominated the sample cost.
func (h *HomeController) busyCount() int { return h.busyEntries }

// wantsInvAck reports whether an InvAck for block belongs to a recall in
// progress at this home (as opposed to a requestor L1's transaction).
func (h *HomeController) wantsInvAck(block uint64) bool {
	e, _ := h.lookup(block)
	return e != nil && e.busy && e.kind == txnRecall
}

// deliver handles a message addressed to this home. Requests and
// replacements extract their fields into a homeReq and queue behind the
// directory/tag latency; the message itself is never retained.
func (h *HomeController) deliver(m *noc.Message) {
	block := m.Addr &^ uint64(noc.LineBytes-1)
	if HomeOf(block, h.p.cfg.Tiles) != h.id {
		panic(fmt.Sprintf("coherence: home %d got %v for block %#x homed at %d",
			h.id, m.Type, block, HomeOf(block, h.p.cfg.Tiles)))
	}
	switch m.Type {
	case noc.GetS, noc.GetX, noc.Upgrade:
		h.Requests.Inc()
		// Charge the directory/tag lookup. One queue serves requests and
		// replacements: both charge the same latency, so a single FIFO
		// preserves their relative arrival order.
		h.p.tagQ.Push(homeReq{typ: int(m.Type), src: m.Src, txn: m.Txn, block: block})
	case noc.WriteBack, noc.ReplacementHint:
		h.p.tagQ.Push(homeReq{typ: int(m.Type), src: m.Src, txn: m.Txn, block: block})
	case noc.Revision:
		h.handleRevision(m, block)
	case noc.OwnAck:
		h.handleOwnAck(m, block)
	case noc.InvAck:
		h.handleRecallAck(m, block)
	default:
		panic(fmt.Sprintf("coherence: home %d got %v", h.id, m.Type))
	}
}

// dispatchTag runs one queued request or replacement after the tag
// latency.
func (h *HomeController) dispatchTag(r *homeReq) {
	switch noc.Type(r.typ) {
	case noc.GetS, noc.GetX, noc.Upgrade:
		h.handleRequest(*r)
	case noc.WriteBack, noc.ReplacementHint:
		h.handleReplacement(*r)
	default:
		panic(fmt.Sprintf("coherence: home %d tag dispatch got %v", h.id, noc.Type(r.typ)))
	}
}

func (h *HomeController) handleRequest(r homeReq) {
	e, line := h.entry(r.block)
	if e.busy {
		h.wait(e, r)
		return
	}
	switch noc.Type(r.typ) {
	case noc.GetS:
		h.handleGetS(r, e, line)
	case noc.GetX:
		h.handleGetX(r, e, line)
	case noc.Upgrade:
		h.handleUpgrade(r, e, line)
	default:
		panic(fmt.Sprintf("coherence: home %d request dispatch got %v", h.id, noc.Type(r.typ)))
	}
}

// wait queues request or replacement r behind e's transaction.
func (h *HomeController) wait(e *dirEntry, r homeReq) {
	h.QueuedAtHome.Inc()
	e.queued++
	h.queue = append(h.queue, r)
}

// handleGetS, handleGetX and handleUpgrade serve a request for a block
// whose directory entry is e and whose L2 line is line (nil when the
// block is not in L2).
func (h *HomeController) handleGetS(r homeReq, e *dirEntry, line *cache.Line) {
	if e.owner == r.src {
		panic(fmt.Sprintf("coherence: home %d GetS from current owner %d for %#x", h.id, r.src, r.block))
	}
	if e.owner >= 0 {
		// 3-hop read: intervene at the owner.
		h.Forwards.Inc()
		h.setBusy(e, true)
		e.kind, e.requestor, e.reqType = txnFwdS, r.src, noc.Type(r.typ)
		e.pendingCloses = 1 // the owner's Revision
		fwd := h.p.msg(noc.FwdGetS, h.id, e.owner, r.block, r.txn)
		fwd.ReplyTo = r.src
		h.p.send(fwd)
		return
	}
	h.ensureData(r.block, e, line, opGrantS, r.src, r.txn)
}

// grantS applies a read grant at its serialization point: the directory
// mutates now; only the grant message waits, on send queue q.
func (h *HomeController) grantS(block uint64, e *dirEntry, src int, txn uint64, q *sim.DelayQueue[noc.Message]) {
	var grant noc.Message
	if e.sharers.Empty() {
		// Sole copy: grant E. Unlike write-ownership transfers, E
		// grants need no completion ack: a racing recall resolves
		// through the requestor's use-once handling (it relinquishes
		// with a replacement hint), and racing interventions defer
		// at the requestor until the grant lands.
		grant = h.p.msg(noc.DataExclusive, h.id, src, block, txn)
		e.owner = src
	} else {
		grant = h.p.msg(noc.Data, h.id, src, block, txn)
		e.sharers.Add(src)
	}
	grant.DataBytes = noc.LineBytes
	h.sendDataGrant(grant, q)
}

// sendDataGrant queues a data-carrying grant on send queue q (the
// Protocol's sendAfterData or sendAfterFill). Under Reply Partitioning
// the critical word leaves first as a PartialReply and the full line
// follows off the critical path.
func (h *HomeController) sendDataGrant(grant noc.Message, q *sim.DelayQueue[noc.Message]) {
	if h.p.cfg.ReplyPartitioning && grant.DataBytes > 0 {
		pr := h.p.msg(noc.PartialReply, grant.Src, grant.Dst, grant.Addr, grant.Txn)
		pr.AckCount = grant.AckCount
		grant.Relaxed = true
		q.Push(pr)
	}
	q.Push(grant)
}

// handleGetX covers true GetX and Upgrade requests demoted to GetX by a
// race (the upgrader's copy was invalidated before its request reached
// the home).
func (h *HomeController) handleGetX(r homeReq, e *dirEntry, line *cache.Line) {
	if e.owner == r.src {
		panic(fmt.Sprintf("coherence: home %d GetX from current owner %d for %#x", h.id, r.src, r.block))
	}
	if e.owner >= 0 {
		h.Forwards.Inc()
		h.setBusy(e, true)
		e.kind, e.requestor, e.reqType = txnFwdX, r.src, noc.Type(r.typ)
		e.pendingCloses = 2 // the owner's Revision + the requestor's OwnAck
		fwd := h.p.msg(noc.FwdGetX, h.id, e.owner, r.block, r.txn)
		fwd.ReplyTo = r.src
		h.p.send(fwd)
		return
	}
	h.ensureData(r.block, e, line, opGrantX, r.src, r.txn)
}

// grantX applies a write grant at its serialization point: invalidate
// the other sharers, transfer ownership, and stay busy until the
// requestor confirms completion (OwnAck), so recalls and interventions
// can never race an in-flight grant.
func (h *HomeController) grantX(block uint64, e *dirEntry, src int, txn uint64, q *sim.DelayQueue[noc.Message]) {
	acks := h.invalidateSharers(e.sharers, block, src, txn)
	grant := h.p.msg(noc.Data, h.id, src, block, txn)
	grant.DataBytes = noc.LineBytes
	grant.AckCount = acks
	e.sharers.Clear()
	e.owner = src
	h.setBusy(e, true)
	e.kind, e.pendingCloses = txnGrant, 1
	h.sendDataGrant(grant, q)
}

func (h *HomeController) handleUpgrade(r homeReq, e *dirEntry, line *cache.Line) {
	if e.owner >= 0 {
		// The requestor lost its copy to a racing write: full GetX path.
		h.handleGetX(r, e, line)
		return
	}
	if e.sharers.Has(r.src) {
		// Upgrade in place: invalidate the others, no data needed.
		acks := h.invalidateSharers(e.sharers, r.block, r.src, r.txn)
		grant := h.p.msg(noc.AckNoData, h.id, r.src, r.block, r.txn)
		grant.AckCount = acks
		e.sharers.Clear()
		e.owner = r.src
		h.setBusy(e, true)
		e.kind, e.pendingCloses = txnGrant, 1
		h.p.send(grant)
		return
	}
	// The requestor's copy vanished (recall): needs data again.
	h.handleGetX(r, e, line)
}

// invalidateSharers sends an invalidation for block, acked to the
// requestor, to every sharer but the requestor itself, in ascending
// tile order, and returns how many it sent.
func (h *HomeController) invalidateSharers(s SharerSet, block uint64, requestor int, txn uint64) int {
	n := 0
	for t := s.Next(0); t >= 0; t = s.Next(t + 1) {
		if t == requestor {
			continue
		}
		n++
		h.InvsSent.Inc()
		inv := h.p.msg(noc.Inv, h.id, t, block, txn)
		inv.ReplyTo = requestor
		h.p.send(inv)
	}
	return n
}

// recallSharers sends recall-flavoured invalidations acked to the home,
// in ascending tile order.
func (h *HomeController) recallSharers(s SharerSet, block uint64, txn uint64) {
	for t := s.Next(0); t >= 0; t = s.Next(t + 1) {
		h.InvsSent.Inc()
		inv := h.p.msg(noc.Inv, h.id, t, block, txn)
		inv.ReplyTo = h.id
		inv.Recall = true
		h.p.send(inv)
	}
}

func (h *HomeController) handleReplacement(r homeReq) {
	e, line := h.entry(r.block)
	if e.busy {
		h.wait(e, r)
		return
	}
	if e.owner == r.src {
		e.owner = -1
		if noc.Type(r.typ) == noc.WriteBack {
			// The line's dirty data lands in the L2 slice.
			if line != nil {
				line.SetState(cache.Modified)
			} else {
				panic(fmt.Sprintf("coherence: home %d writeback for L2-absent block %#x (inclusion broken)", h.id, r.block))
			}
		}
	}
	// Stale replacements (ownership already moved) are acked silently.
	h.p.send(h.p.msg(noc.WBAck, h.id, r.src, r.block, r.txn))
	h.release(r.block, e)
}

func (h *HomeController) handleRevision(m *noc.Message, block uint64) {
	e, line := h.lookup(block)
	if e == nil || !e.busy {
		panic(fmt.Sprintf("coherence: home %d revision for idle block %#x", h.id, block))
	}
	switch e.kind {
	case txnFwdS:
		if m.DataBytes > 0 {
			if line != nil {
				line.SetState(cache.Modified)
			} else {
				panic(fmt.Sprintf("coherence: home %d revision data for L2-absent block %#x", h.id, block))
			}
		}
		oldOwner := e.owner
		e.owner = -1
		e.sharers.Add(e.requestor)
		if !m.NoCopy {
			e.sharers.Add(oldOwner)
		}
		h.closeOne(block, e)
	case txnFwdX:
		e.owner = e.requestor
		e.sharers.Clear()
		h.closeOne(block, e)
	case txnRecall:
		if m.DataBytes > 0 {
			// Dirty recall data returns; the line is leaving L2 anyway,
			// so it flows to memory (counted, not stored).
		}
		h.recallAckArrived(block, e, line)
	default:
		panic(fmt.Sprintf("coherence: home %d revision during %d txn for %#x", h.id, e.kind, block))
	}
}

func (h *HomeController) handleOwnAck(m *noc.Message, block uint64) {
	e, _ := h.lookup(block)
	if e == nil || !e.busy || (e.kind != txnGrant && e.kind != txnFwdX) {
		panic(fmt.Sprintf("coherence: home %d OwnAck for non-grant block %#x", h.id, block))
	}
	h.closeOne(block, e)
}

// closeOne retires one of the transaction's pending closing messages.
func (h *HomeController) closeOne(block uint64, e *dirEntry) {
	e.pendingCloses--
	if e.pendingCloses <= 0 {
		h.finishTxn(block, e)
	}
}

func (h *HomeController) handleRecallAck(m *noc.Message, block uint64) {
	e, line := h.lookup(block)
	if e == nil || !e.busy || e.kind != txnRecall {
		panic(fmt.Sprintf("coherence: home %d recall ack for non-recall block %#x", h.id, block))
	}
	h.recallAckArrived(block, e, line)
}

// recallAckArrived counts one recall ack (an InvAck or the owner's
// Revision) for a victim block whose directory entry is e and whose
// L2 line is line.
func (h *HomeController) recallAckArrived(block uint64, e *dirEntry, line *cache.Line) {
	e.recallAcks--
	if e.recallAcks > 0 {
		return
	}
	e.sharers.Clear()
	e.owner = -1
	fillFor := e.fillFor
	e.fillFor = 0
	// Complete the eviction (L2 invalidate + fill) before draining the
	// victim's queued requests, so they observe the post-recall state.
	// The victim's entry moves to the side list with its line gone.
	if line == nil {
		panic(fmt.Sprintf("coherence: home %d recalled %#x, which has no L2 line", h.id, block))
	}
	h.invalidateL2(line)
	fe, _ := h.lookup(fillFor)
	if fe == nil || !fe.busy || fe.kind != txnFill {
		panic(fmt.Sprintf("coherence: home %d recall for %#x finished without a pending fill for %#x", h.id, block, fillFor))
	}
	h.finishFill(fillFor, fe)
	h.finishTxn(block, e)
}

// finishTxn clears the busy state and drains the block's queued
// requests in order. They move from the home's queue to its drain
// buffer first, and the rest of the queue closes up behind them: a
// replay that finds the entry busy again re-queues at the tail, and the
// entry may be released and reused meanwhile.
func (h *HomeController) finishTxn(block uint64, e *dirEntry) {
	h.setBusy(e, false)
	e.kind = txnNone
	start := len(h.drain)
	if e.queued > 0 {
		kept := h.queue[:0]
		for _, r := range h.queue {
			if r.block == block {
				h.drain = append(h.drain, r)
			} else {
				kept = append(kept, r)
			}
		}
		h.queue = kept
		e.queued = 0
	}
	end := len(h.drain)
	h.release(block, e)
	for i := start; i < end; i++ {
		r := h.drain[i]
		switch noc.Type(r.typ) {
		case noc.GetS, noc.GetX, noc.Upgrade:
			h.handleRequest(r)
		case noc.WriteBack, noc.ReplacementHint:
			h.handleReplacement(r)
		default:
			panic(fmt.Sprintf("coherence: home %d queued %v", h.id, noc.Type(r.typ)))
		}
	}
	h.drain = h.drain[:start]
}

// ensureData dispatches the grant op once the block's data is available
// in the L2 slice, fetching from memory (and recalling an L2 victim) if
// needed. The grant runs at the transaction's serialization point and
// applies its directory mutations synchronously; outgoing data messages
// wait out the L2 data array on the Protocol's sendAfterData queue. The
// tag lookup is already charged by the caller, whose probe found line
// (nil on an L2 miss).
func (h *HomeController) ensureData(block uint64, e *dirEntry, line *cache.Line, op uint8, src int, txn uint64) {
	if line != nil {
		h.l2.AccessHit(line) // LRU touch + hit accounting
		h.dispatchGrant(block, e, op, src, txn, h.p.sendAfterData)
		return
	}
	h.l2.AccessMiss()
	if !e.sharers.Empty() || e.owner >= 0 {
		panic(fmt.Sprintf("coherence: home %d block %#x has L1 copies but no L2 line (inclusion broken)", h.id, block))
	}
	h.L2Misses.Inc()
	h.MemFetches.Inc()
	h.setBusy(e, true)
	e.kind = txnFill
	e.pendOp, e.pendSrc, e.pendTxn = op, src, txn
	h.p.fillQ.Push(homeFill{block: block})
}

// dispatchGrant resumes a pending grant operation, its grant messages
// queued on q.
func (h *HomeController) dispatchGrant(block uint64, e *dirEntry, op uint8, src int, txn uint64, q *sim.DelayQueue[noc.Message]) {
	switch op {
	case opGrantS:
		h.grantS(block, e, src, txn, q)
	case opGrantX:
		h.grantX(block, e, src, txn, q)
	default:
		panic(fmt.Sprintf("coherence: home %d grant dispatch op %d for %#x", h.id, op, block))
	}
}

// fillL2 inserts a memory-fetched block, recalling the victim first when
// inclusion demands it.
func (h *HomeController) fillL2(block uint64) {
	e, _ := h.lookup(block)
	if e == nil || !e.busy || e.kind != txnFill {
		panic(fmt.Sprintf("coherence: home %d fill for %#x without a fill transaction", h.id, block))
	}
	victim := h.pickL2Victim(block)
	if victim == nil {
		// Every way's block is mid-transaction; retry shortly.
		h.p.fillRetryQ.Push(homeFill{block: block})
		return
	}
	if !victim.Valid() {
		h.finishFill(block, e)
		return
	}
	vblock := victim.Block()
	var ve *dirEntry
	if victim.Aux != 0 {
		ve = h.at(victim.Aux)
	}
	if ve == nil || (ve.sharers.Empty() && ve.owner < 0) {
		// No L1 copies: plain L2 eviction (dirty data flows to memory).
		h.invalidateL2(victim)
		h.finishFill(block, e)
		return
	}
	// Inclusion recall: the fill resumes from recallAckArrived once the
	// last ack (or the owner's Revision) lands.
	h.Recalls.Inc()
	h.setBusy(ve, true)
	ve.kind = txnRecall
	ve.fillFor = block
	if ve.owner >= 0 {
		ve.recallAcks = 1
		inv := h.p.msg(noc.Inv, h.id, ve.owner, vblock, h.p.txn())
		inv.ReplyTo = h.id
		inv.Recall = true
		h.p.send(inv)
	} else {
		ve.recallAcks = ve.sharers.Count()
		h.recallSharers(ve.sharers, vblock, h.p.txn())
	}
}

// finishFill completes a memory fill: the line lands in L2, the entry
// moves from the side list to it, and the pending grant dispatches
// with no further data-array delay.
func (h *HomeController) finishFill(block uint64, e *dirEntry) {
	if old := h.l2.Insert(block, cache.Shared); old.Aux != 0 { // clean w.r.t. memory
		panic(fmt.Sprintf("coherence: home %d fill of %#x displaced %#x, whose L2 line names entry %d", h.id, block, old.Block(), old.Aux))
	}
	h.unside(e.ref)
	h.l2.Probe(block).Aux = e.ref
	// The fill transaction ends here; the grant may immediately open an
	// ownership-grant transaction on the same entry, in which case the
	// queued requests keep waiting for its OwnAck.
	h.setBusy(e, false)
	e.kind = txnNone
	op, src, txn := e.pendOp, e.pendSrc, e.pendTxn
	e.pendOp = opNone
	h.dispatchGrant(block, e, op, src, txn, h.p.sendAfterFill)
	if !e.busy {
		h.finishTxn(block, e)
	}
}

// pickL2Victim chooses an eviction victim for block's set: an invalid
// way, else the least-recently-used way whose block has no transaction
// in flight. nil means every way is busy.
func (h *HomeController) pickL2Victim(block uint64) *cache.Line {
	v := h.l2.Victim(block)
	if !v.Valid() {
		return v
	}
	var best *cache.Line
	set := h.l2.Set(block)
	for i := range set {
		cand := &set[i]
		if !cand.Valid() {
			return cand
		}
		if cand.Aux != 0 && h.at(cand.Aux).busy {
			continue
		}
		if best == nil {
			best = cand
		}
	}
	return best
}

// DirInfo returns the directory view of one block for invariant checks:
// a copy of the sharer mask, the owner (-1 if none), whether a
// transaction is in flight, and whether the block is tracked at all.
func (h *HomeController) DirInfo(block uint64) (sharers SharerSet, owner int, busy bool, tracked bool) {
	e, _ := h.lookup(block)
	if e == nil {
		return make(SharerSet, sharerWords(h.p.cfg.Tiles)), -1, false, false
	}
	return slices.Clone(e.sharers), e.owner, e.busy, true
}

package proxy

import (
	"context"

	"dvm/internal/attest"
)

// Artifact is one transformed class together with everything that must
// travel with it: the key it answers, the quorum seal over its bytes,
// and whether it is a verification-failure replacement. It is the one
// shape a class takes inside the proxy and the cluster — cache entry,
// flight result, peer fill, replica push, handoff, prefetch — so no hop
// can forget a field. An Artifact is never modified once it has been
// put in the store or handed to another goroutine; share the pointer.
type Artifact struct {
	Arch  string
	Class string
	Data  []byte
	// Att is the sealed attestation over Data (nil when the fleet does
	// not attest). Whoever builds an Artifact from bytes that crossed a
	// trust boundary verifies Att against them first.
	Att *attest.Attestation
	// Rejected marks a replacement class that raises VerifyError on the
	// client. Replacements are architecture-independent and must never
	// be fed to the compiler.
	Rejected bool
	// Source says how this node came to hold the artifact: one of the
	// Source* constants.
	Source string
}

// Artifact sources. The four push sources double as the reason field of
// the peer batch protocol.
const (
	SourceOrigin = "origin" // fetched and transformed here
	SourceDerive = "derive" // compiled here from the cached base artifact
	SourceDisk   = "disk"   // reloaded from the disk tier

	ReasonFill     = "fill"     // served by the key's owner on a miss
	ReasonReplica  = "replica"  // a ring owner's copy, pushed or kept as it voted
	ReasonHandoff  = "handoff"  // moved on a membership change
	ReasonPrefetch = "prefetch" // pushed speculatively; placed cold, never evicts
)

func (a *Artifact) key() string { return a.Arch + "\x00" + a.Class }

// SealMode says what a fleet variant must do with the payload to
// re-derive an artifact and vote on it.
type SealMode string

const (
	// SealTransform: the payload is origin bytes; run the pipeline.
	SealTransform SealMode = ""
	// SealCompile: the payload is the base-architecture artifact; run
	// the AOT compiler.
	SealCompile SealMode = "compile"
)

// Fleet is what a proxy needs from the cluster it is a member of
// (implemented by *cluster.Node; nil = standalone). A miss asks the
// fleet first, and an artifact produced here is sealed by the fleet —
// which also places its copies on the key's other owners — before anyone
// sees it.
type Fleet interface {
	// Fill routes a miss through the key's ring owners. The full Lookup
	// is passed so the owner's prefetch predictor learns per-client
	// request sequences.
	Fill(ctx context.Context, l Lookup) PeerResult
	// Seal cross-checks an artifact this node produced against ring
	// successors — each re-derives it from payload under mode — and
	// returns the sealed attestation on agreement. An error fails the
	// flight: a node never serves bytes its own fleet outvoted. A nil
	// attestation with a nil error means the fleet does not attest.
	// Runs under the admission slot, so the quorum round trip is part
	// of the key's one-time service cost. Seal also places copies on the
	// key's other owners that lack one, asynchronously; that work must not
	// read art.Att, which the proxy sets after Seal returns.
	Seal(ctx context.Context, art *Artifact, payload []byte, mode SealMode) (*attest.Attestation, error)
}

// PeerResult is the outcome of Fleet.Fill. Art set (its Source is
// ReasonFill): the owning peer served the class, already verified —
// skip the origin and the pipeline. Err set: the owner chain was down
// or refused; degrade to a local origin fetch so a peer outage never
// fails a request. Neither: this node owns the key.
type PeerResult struct {
	Art *Artifact
	Err error
	// CacheLocal keeps the peer's artifact in this node's own store: the
	// cluster copies hot keys toward their readers so the ring owner
	// does not become a hotspot.
	CacheLocal bool
	// Stale mirrors the owner's response flag so audit records and
	// client semantics survive the peer hop.
	Stale bool
	// Peer identifies the node that served (or failed to serve) the key.
	Peer string
}

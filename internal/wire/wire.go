// Package wire is the request side of the serving tier's HTTP contract,
// built once for both hops: the names and limits a client, the router and a
// shard agree on, the request-body reader, the single-pass request scanner
// and the cache/ring key. It is a leaf — it imports nothing from this
// module — so cmd/router links the contract without linking the runtime
// (DESIGN.md §8).
package wire

import (
	"strconv"
	"time"
)

// MaxDocumentBytes bounds request bodies: the production system processes
// web pages, not bulk corpora, per request.
const MaxDocumentBytes = 1 << 20

// TenantHeader names the header identifying the calling tenant for
// per-tenant quota accounting. Requests without it share the anonymous
// tenant's bucket.
const TenantHeader = "X-Tenant"

// DeadlineHeader carries the router's remaining per-request budget, in
// integer milliseconds. A shard-mode server (TrustForwardedDeadline)
// clamps its own deadline to it so a request that already burned most of
// its budget at the router does not get a fresh full deadline at the
// shard.
const DeadlineHeader = "X-Deadline-Ms"

// AnnotateRequest is the JSON request body of /v1/annotate and /v1/render.
type AnnotateRequest struct {
	// Text is the document (plain text, or HTML when HTML is true).
	Text string `json:"text"`
	// HTML strips markup before detection.
	HTML bool `json:"html,omitempty"`
	// Top keeps the top-N distinct concepts (0 = server default, -1 = all).
	Top int `json:"top,omitempty"`
}

// RetryAfter renders a Retry-After duration as whole seconds, rounded up
// with a floor of one: the delay-seconds form of RFC 9110, the one a client
// can parse without a clock.
func RetryAfter(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// FNV-64a, inline: hash/fnv's hash.Hash64 takes []byte, which costs a
// string caller a copy of the whole document per request.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvAddInt hashes n's decimal digits, as strconv.Itoa would spell them.
func fnvAddInt(h uint64, n int) uint64 {
	var buf [20]byte
	return fnvAdd(h, strconv.AppendInt(buf[:0], int64(n), 10))
}

// Key is the cache, single-flight and ring key of an annotate request: the
// FNV-64a hash over the document text followed by top's decimal digits. The
// shard's cache and the router's ring placement both use it, so a document
// is routed to the shard whose cache holds it.
func Key[T string | []byte](text T, top int) uint64 {
	return fnvAddInt(fnvAdd(fnvOffset64, text), top)
}

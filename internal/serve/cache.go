package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// cacheKey derives the content address of a job from its canonical
// spec: the validated Spec (defaults filled, seed resolved) as
// marshaled JSON. The spec carries no wall-clock fields, and the
// engine is deterministic in everything the spec does carry, so equal
// keys imply byte-identical result streams modulo the wall-clock
// fields the determinism contract already excludes. It returns the
// SHA-256 digest, the result cache's key, and its "sha256:<hex>" form,
// the Idempotency-Key header value on submissions.
func cacheKey(canonical []byte) ([sha256.Size]byte, string) {
	sum := sha256.Sum256(canonical)
	var text [len("sha256:") + 2*sha256.Size]byte
	copy(text[:], "sha256:")
	hex.Encode(text[len("sha256:"):], sum[:])
	return sum, string(text[:])
}

// canonicalSpec marshals a prepared spec into its canonical bytes —
// the exact form hashed for the cache key and persisted in the store's
// admission record, so a restart re-derives the same key.
func canonicalSpec(p *Prepared) (json.RawMessage, error) {
	return json.Marshal(p.spec)
}

// rememberLocked makes finished job n the result source for key unless
// an earlier done job already is one. Callers hold s.mu, or run before
// any worker or handler exists.
func (s *Server) rememberLocked(key [sha256.Size]byte, n uint32) {
	if _, ok := s.sources[key]; !ok {
		s.sources[key] = n
	}
}

// cachedRun returns key's source, a done job in the finished-job index,
// and its whole stored stream, read once. id is "" when no done job has
// the key or when its log cannot be read; the last also drops the
// source, so the re-run that follows takes its place. A job enters the
// cache only once its log is complete in the store (Server.retire), so
// the read needs no other check.
func (s *Server) cachedRun(key [sha256.Size]byte) (id string, lines [][]byte) {
	s.mu.Lock()
	n, ok := s.sources[key]
	fin, _ := s.finished.get(n)
	s.mu.Unlock()
	if !ok {
		return "", nil
	}
	id = jobID(n)
	lines, err := s.store.ReadResults(id, 0, fin.lines())
	if err != nil || len(lines) == 0 {
		s.mu.Lock()
		if m, ok := s.sources[key]; ok && m == n {
			delete(s.sources, key)
		}
		s.mu.Unlock()
		return "", nil
	}
	return id, lines
}

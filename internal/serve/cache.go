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
// fields the determinism contract already excludes. The key doubles as
// the Idempotency-Key header value on submissions.
func cacheKey(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// canonicalSpec marshals a prepared spec into its canonical bytes —
// the exact form hashed for the cache key and persisted in the store's
// admission record, so a restart re-derives the same key.
func canonicalSpec(p *Prepared) (json.RawMessage, error) {
	return json.Marshal(p.spec)
}

// rememberLocked makes j the result source for its key unless an
// earlier done job already is one. Callers hold s.mu, or run before
// any worker or handler exists.
func (s *Server) rememberLocked(j *Job) {
	if _, ok := s.sources[j.key]; !ok {
		s.sources[j.key] = j
	}
}

// cachedRun returns key's source job and its whole stored stream,
// read once through the source's buffer. src is nil when no done job
// has the key, when the source is still finishing (a concurrent
// identical submission), or when its log cannot be read; the last also
// drops the source, so the re-run that follows takes its place.
func (s *Server) cachedRun(key string) (src *Job, lines [][]byte) {
	s.mu.Lock()
	src = s.sources[key]
	s.mu.Unlock()
	if src == nil {
		return nil, nil
	}
	src.mu.Lock()
	sealed := src.finalized
	src.mu.Unlock()
	if !sealed {
		return nil, nil
	}
	lines, err := src.buf.all()
	if err != nil || len(lines) == 0 {
		s.mu.Lock()
		if s.sources[key] == src {
			delete(s.sources, key)
		}
		s.mu.Unlock()
		return nil, nil
	}
	return src, lines
}

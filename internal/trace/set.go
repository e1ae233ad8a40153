package trace

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Set is a family of per-rig tracers for runs that build many independent
// simulation environments — possibly concurrently. A single Tracer cannot
// observe parallel environments (it is deliberately lock-free, and
// interleaving two envs' streams would make the digest depend on goroutine
// timing), so each rig gets its own child tracer keyed by a caller-chosen
// name, and the Set folds the children's digests together in sorted-name
// order. The combined digest is therefore a pure function of the per-rig
// behaviour, identical no matter how many workers executed the rigs or in
// what order they finished.
//
// Tracer(name) is safe to call from multiple goroutines; each child Tracer
// remains single-threaded property of its environment, exactly like a
// standalone Tracer.
type Set struct {
	mu       sync.Mutex
	opts     Options
	children map[string]*setChild
}

type setChild struct {
	tr   *Tracer
	file *os.File // per-rig dump, replayed in name order by Flush
	err  error    // why the rig has no dump file
}

// NewSet returns a tracer family with the given per-child options. When
// opts.Dump is set, the children dump: each into a temporary file of its
// own, as its rig runs, and Flush copies the files to its destination
// grouped by rig name, so a parallel run's dump is byte-identical to a
// serial run's and a sweep's dump costs disk, not memory.
func NewSet(opts Options) *Set {
	return &Set{opts: opts, children: make(map[string]*setChild)}
}

// Tracer returns the child tracer for the named rig, creating it on first
// use. Names must be unique per rig (reusing a name returns the same child,
// which only makes sense for rigs that run strictly one after another).
func (s *Set) Tracer(name string) *Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.children[name]; ok {
		return c.tr
	}
	c := &setChild{}
	opts := s.opts
	if opts.Dump != nil {
		// The file is unlinked at once where the system allows it, so a
		// run that never reaches Flush leaves nothing behind.
		c.file, c.err = os.CreateTemp("", "bmstore-trace-*")
		if c.err == nil {
			os.Remove(c.file.Name())
			opts.Dump = c.file
		} else {
			opts.Dump = io.Discard
		}
	}
	c.tr = New(opts)
	s.children[name] = c
	return c.tr
}

// Rigs returns how many child tracers exist.
func (s *Set) Rigs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.children)
}

// Events returns the total events folded across all children.
func (s *Set) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, c := range s.children {
		n += c.tr.Events()
	}
	return n
}

// Digest folds each child's (name, digest, events) into a combined digest in
// sorted-name order. Two sweeps are equivalent iff every rig behaved
// identically, regardless of execution interleaving.
func (s *Set) Digest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := uint64(fnvOffset64)
	for _, name := range s.sortedNames() {
		c := s.children[name]
		h = mixString(h, name)
		h = mixString(h, c.tr.Digest())
		h = mixU64(h, c.tr.Events())
	}
	return fmt.Sprintf("fnv64w-set:%016x", h)
}

// Flush writes the per-rig dumps to w, grouped under one header per rig in
// sorted-name order, and deletes the rigs' files. Call it once, after every
// rig has run. It is a no-op when dumping was not enabled.
func (s *Set) Flush(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, name := range s.sortedNames() {
		c := s.children[name]
		if c.file == nil && c.err == nil {
			continue
		}
		if first == nil {
			first = c.flush(w, name)
		}
		if c.file != nil {
			c.file.Close()
			os.Remove(c.file.Name())
			c.file = nil
		}
	}
	return first
}

// flush writes one rig's header and dump to w.
func (c *setChild) flush(w io.Writer, name string) error {
	if c.err != nil {
		return c.err
	}
	if err := c.tr.Flush(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "=== rig %s (%d events, %s)\n", name, c.tr.Events(), c.tr.Digest()); err != nil {
		return err
	}
	if _, err := c.file.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := io.Copy(w, c.file)
	return err
}

// sortedNames returns child names sorted; callers hold s.mu.
func (s *Set) sortedNames() []string {
	names := make([]string, 0, len(s.children))
	for name := range s.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

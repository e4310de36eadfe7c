package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Cache persistence: the result cache saved across daemon restarts. On
// a clean shutdown (Drain) the cache is dumped to CacheDir; on startup,
// after the views are registered, LoadCache walks the dump and decides
// per entry:
//
//   - the entry's data-version stamp still matches the live sources →
//     install as-is (a "restored" entry: the first request is a cache
//     hit, not a re-evaluation);
//   - the stamp moved but the change-log judge proves every delta in
//     the window irrelevant for the entry's binding → install restamped
//     (a "revalidated" entry: still no re-evaluation, and never stale —
//     the proof is the same one the background refresher relies on);
//   - anything else (view gone, judge can't prove, truncated window) →
//     drop. Serving a possibly-stale body is never an option.
//
// The dump is written atomically (temp file + rename), so a crash
// mid-save leaves the previous dump intact; a missing or corrupt dump
// just means a cold cache.

// cacheDumpFile is the dump's name under Config.CacheDir.
const cacheDumpFile = "cache.gob"

// cacheDumpMagic versions the dump format; a mismatch drops the dump.
const cacheDumpMagic = "AIGCACHE1"

// persistedEntry is the gob form of one cache entry.
type persistedEntry struct {
	View      string
	KeyPrefix string
	Stamp     string
	Params    map[string]string
	TableVers map[string]map[string]uint64
	Body      []byte
	Depth     int
	EvalSec   float64
	// Path and Matches carry fragment provenance ("" / 0 for full
	// documents); gob decodes their absence in older dumps as zero.
	Path    string
	Matches int
	// CreatedUnixNano preserves the entry's age across the restart.
	CreatedUnixNano int64
}

// persistedCache is the gob form of the whole dump.
type persistedCache struct {
	Magic   string
	Entries []persistedEntry
}

// SaveCache dumps the current result cache to dir atomically. A nil
// error with zero entries is fine (an empty dump is still written, so a
// later load does not resurrect an older one).
func (s *Server) SaveCache(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dump := persistedCache{Magic: cacheDumpMagic}
	for _, it := range s.cache.Snapshot() {
		e := it.entry
		dump.Entries = append(dump.Entries, persistedEntry{
			View:            e.view,
			KeyPrefix:       e.keyPrefix,
			Stamp:           e.stamp,
			Params:          e.params,
			TableVers:       e.tableVers,
			Body:            e.body,
			Depth:           e.depth,
			EvalSec:         e.evalSec,
			Path:            e.path,
			Matches:         e.matches,
			CreatedUnixNano: e.created.UnixNano(),
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&dump); err != nil {
		return fmt.Errorf("serve: cache dump encode: %w", err)
	}
	tmp := filepath.Join(dir, cacheDumpFile+".tmp")
	final := filepath.Join(dir, cacheDumpFile)
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	s.m.cacheSaved.Add(int64(len(dump.Entries)))
	s.logger.Info("cache saved", "dir", dir, "entries", len(dump.Entries))
	return nil
}

// LoadCache restores a previous dump from dir. Call it after every view
// is registered: entries of unknown views are dropped. A missing dump
// is a cold start, not an error. Returns the number of entries
// installed (restored plus revalidated).
func (s *Server) LoadCache(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, cacheDumpFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var dump persistedCache
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dump); err != nil {
		return 0, fmt.Errorf("serve: cache dump decode: %w", err)
	}
	if dump.Magic != cacheDumpMagic {
		return 0, fmt.Errorf("serve: cache dump magic %q, want %q", dump.Magic, cacheDumpMagic)
	}

	installed := 0
	states := make(map[string]viewState)
	for _, pe := range dump.Entries {
		e := &cacheEntry{
			body:      pe.Body,
			depth:     pe.Depth,
			evalSec:   pe.EvalSec,
			created:   time.Unix(0, pe.CreatedUnixNano),
			view:      pe.View,
			params:    pe.Params,
			keyPrefix: pe.KeyPrefix,
			stamp:     pe.Stamp,
			tableVers: pe.TableVers,
			path:      pe.Path,
			matches:   pe.Matches,
		}
		st, seen := states[pe.View]
		if !seen {
			if v := s.View(pe.View); v != nil {
				st = s.snapshotView(v)
			}
			states[pe.View] = st
		}
		if !st.ok {
			s.m.cacheDropped.Inc()
			continue
		}
		t, terr := s.entryTarget(st.v, e)
		if terr != nil {
			s.m.cacheDropped.Inc()
			continue
		}
		switch {
		case e.stamp == st.stamp:
			s.cache.Add(e.keyPrefix+"\x00"+e.stamp, e)
			s.m.cacheRestored.Inc()
			installed++
		case s.judgeUnaffected(e, st, s.deps(t, st.stamp)):
			// Data moved while the daemon was down, but every delta is
			// provably irrelevant for this binding: carry the body over
			// under the live stamp.
			s.cache.Add(e.keyPrefix+"\x00"+st.stamp, e.restamped(st.stamp, st.tv))
			s.m.cacheRevalidated.Inc()
			installed++
		default:
			s.m.cacheDropped.Inc()
		}
	}
	s.m.cacheEntries.Set(float64(s.cache.Len()))
	s.logger.Info("cache loaded", "dir", dir,
		"dumped", len(dump.Entries), "installed", installed)
	return installed, nil
}

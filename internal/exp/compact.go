package exp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// CompactJournal rewrites the journal at path keeping the header and only
// the latest result entry per job index, dropping superseded entries (a
// failure later replaced by a success, or repeated failures) and the
// quorum vote audit records that journals of earlier releases carry.
// Entries are rewritten in job-index order, byte-for-byte as they were
// appended, so a compacted journal resumes to exactly the same state as
// the original. The rewrite is crash-safe: a temp file in the
// same directory is fully written and fsynced, then atomically renamed
// over the original. Returns how many entries were kept and dropped.
func CompactJournal(path string) (kept, dropped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("exp: journal %s: empty or unreadable header: %w", path, sc.Err())
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Type != "header" {
		return 0, 0, fmt.Errorf("exp: journal %s: bad header line", path)
	}
	if hdr.Version != journalVersion {
		return 0, 0, fmt.Errorf("exp: journal %s: version %d, want %d", path, hdr.Version, journalVersion)
	}
	headerLine := append([]byte(nil), sc.Bytes()...)

	// Latest raw result line per job index; later lines supersede earlier
	// ones for the same job. Raw bytes are kept verbatim so compaction
	// cannot perturb what a resume decodes.
	latest := make(map[int][]byte)
	line := 1
	var pendingErr error
	for sc.Scan() {
		line++
		// Like Journal.load: a parse failure is fatal only if more lines
		// follow — the final line may be a partial write from a kill.
		if pendingErr != nil {
			return 0, 0, pendingErr
		}
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			pendingErr = fmt.Errorf("exp: journal %s:%d: corrupt entry: %v", path, line, err)
			continue
		}
		switch e.Type {
		case "vote":
			dropped++
		case "result":
			if e.Index < 0 || e.Index >= len(hdr.Jobs) || e.Job != hdr.Jobs[e.Index] {
				return 0, 0, fmt.Errorf("exp: journal %s:%d: entry does not match header job set", path, line)
			}
			if _, seen := latest[e.Index]; seen {
				dropped++
			}
			latest[e.Index] = append([]byte(nil), sc.Bytes()...)
		default:
			return 0, 0, fmt.Errorf("exp: journal %s:%d: unknown entry type %q", path, line, e.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("exp: journal %s: %w", path, err)
	}
	if pendingErr != nil {
		dropped++ // partial trailing line: dropped, like load would
	}

	indexes := make([]int, 0, len(latest))
	for i := range latest {
		indexes = append(indexes, i)
	}
	sort.Ints(indexes)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".compact-*")
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriter(tmp)
	w.Write(headerLine)
	w.WriteByte('\n')
	for _, i := range indexes {
		w.Write(latest[i])
		w.WriteByte('\n')
		kept++
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, 0, err
	}
	tmpName := tmp.Name()
	if err := tmp.Close(); err != nil {
		return 0, 0, err
	}
	tmp = nil
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, 0, err
	}
	// Persist the rename itself; best-effort on filesystems that refuse
	// directory fsync.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return kept, dropped, nil
}

package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"anondyn/internal/obs"
)

// Journal is the campaign's durable result stream: one JSON-encoded Result
// per line. Run's committer appends the rows that finished since its last
// write as one batch, synced per batch: each Append is one write and one
// fsync, and a job is reported done only after the fsync that covers its
// row. The file is the unit of resume — a killed campaign restarts with
// ReadJournal's keys as Options.Done and recomputes only what is missing.
// The journal is append-only and idempotent by job key: a key is written
// at most once per campaign, and re-running a finished campaign with
// resume writes nothing.
//
// Durability convention: a row's trailing newline is its commit marker. A
// kill can land mid-write, leaving a torn tail — any final bytes not ending
// in '\n', or a final line that does not parse as a Result. Torn bytes are
// never data: ReadJournal ignores them and OpenJournal(resume) truncates
// them before appending, so the job behind a torn row simply re-runs and
// re-appends. Without the truncation a fresh append would concatenate onto
// the torn fragment and manufacture a mid-file unparseable line that no
// later resume could ever forgive.
//
// The first failed write or fsync ends writing: every later Append returns
// that error and touches the file no more. Bytes after a failed write would
// follow a torn fragment, and an fsync after a failed one can succeed
// although the pages of the failed one never reached the disk.
type Journal struct {
	mu sync.Mutex
	f  journalFile
	// err is the first write or fsync failure; once set, Append writes
	// nothing more.
	err error
	// appendNS, when non-nil, records the wall time of each Append —
	// write plus fsync, the campaign's durability tax. Set via Observe.
	appendNS *obs.Histogram
}

// journalFile is the part of *os.File a Journal writes through; tests
// substitute a file that fails on a chosen call.
type journalFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Observe routes append+fsync latency into col's obs.SweepJournalAppendNS
// histogram, one observation per Append (per batch). A nil collector
// detaches the journal from observation again; either way the append path
// itself is unchanged.
func (j *Journal) Observe(col *obs.Collector) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendNS = col.Histogram(obs.SweepJournalAppendNS)
}

// OpenJournal opens the journal at path. With resume, existing rows are
// kept — after any torn tail left by a mid-append kill is truncated away —
// and new rows append after them; otherwise the file is truncated and the
// campaign starts from zero.
func OpenJournal(path string, resume bool) (*Journal, error) {
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
		if err := truncateTornTail(path); err != nil {
			return nil, err
		}
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// truncateTornTail removes a torn tail before a resume appends to the file:
// everything after the last committed row (the last newline-terminated line
// that is blank or parses as a keyed Result) is cut. Committed rows are
// never touched — mid-file corruption is left in place for ReadJournal's
// audit to report loudly rather than silently amputated. The truncation is
// fsynced so a kill immediately after the repair cannot resurrect the tail.
func truncateTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("sweep: repair journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var size, cleanEnd int64
	for {
		line, err := br.ReadBytes('\n')
		size += int64(len(line))
		if terminated := len(line) > 0 && line[len(line)-1] == '\n'; terminated {
			if trimmed := bytes.TrimSpace(line); len(trimmed) == 0 || parseRow(trimmed) == nil {
				cleanEnd = size
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("sweep: repair journal %s: %w", path, err)
		}
	}
	if cleanEnd == size {
		return nil
	}
	if err := f.Truncate(cleanEnd); err != nil {
		return fmt.Errorf("sweep: truncate torn journal tail %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("sweep: sync repaired journal %s: %w", path, err)
	}
	return nil
}

// parseRow decodes one journal line into a Result, requiring the job key
// that makes the row addressable; it reports nil on success. It is the
// single definition of "valid row" shared by the reader and the repair.
func parseRow(line []byte) error {
	var r Result
	if err := json.Unmarshal(line, &r); err != nil {
		return err
	}
	if r.Key == "" {
		return errors.New("row has no job key")
	}
	return nil
}

// Append writes the completed results as one batch of rows, with one write
// and one fsync, so a result the engine reported done survives any
// subsequent kill. After a failed write or fsync it returns that failure
// and writes nothing.
func (j *Journal) Append(rs ...Result) error {
	var data []byte
	for _, r := range rs {
		row, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("sweep: encode journal row %s: %w", r.Key, err)
		}
		data = append(append(data, row...), '\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	start := j.appendNS.Start()
	defer j.appendNS.Stop(start)
	if _, err := j.f.Write(data); err != nil {
		j.err = fmt.Errorf("sweep: append %d journal rows: %w", len(rs), err)
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("sweep: sync journal: %w", err)
		return j.err
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal loads a journal's completed results keyed by job key — the
// Options.Done input of a resumed run. A missing file is an empty journal.
//
// The file is streamed line by line, so resume memory is bounded by one row
// regardless of journal size (and rows longer than any fixed scanner token
// cap read fine). A torn tail from a mid-append kill — the last non-empty
// line failing to parse, wherever bytes.Split-style accounting would have
// placed it relative to a trailing newline, or any final unterminated
// bytes — is dropped: its job simply re-runs. Anything malformed that is
// *followed* by more data, and any duplicated job key, is an error — a
// duplicate means some job executed twice, which the resume contract
// forbids, so the audit fails loudly rather than silently keeping either
// row.
func ReadJournal(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]Result{}, nil
		}
		return nil, fmt.Errorf("sweep: read journal: %w", err)
	}
	defer f.Close()

	done := make(map[string]Result)
	br := bufio.NewReader(f)
	lineNo := 0
	// A parse failure is only forgivable if nothing non-empty follows it —
	// i.e. it is the journal's last non-empty line, hence a torn tail. The
	// error is held here until a later line proves it mid-file.
	var torn error
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return nil, fmt.Errorf("sweep: read journal %s: %w", path, rerr)
		}
		lineNo++
		terminated := len(line) > 0 && line[len(line)-1] == '\n'
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			if torn != nil {
				return nil, torn // the torn line was not the tail after all
			}
			var r Result
			switch {
			case !terminated:
				// Unterminated final bytes never committed (the newline is
				// the commit marker): torn tail, dropped.
			case json.Unmarshal(trimmed, &r) != nil || r.Key == "":
				torn = fmt.Errorf("sweep: journal %s line %d: %v", path, lineNo, parseRow(trimmed))
			default:
				if _, dup := done[r.Key]; dup {
					return nil, fmt.Errorf("sweep: journal %s line %d: job %s appears twice — some job was executed twice", path, lineNo, r.Key)
				}
				done[r.Key] = r
			}
		}
		if errors.Is(rerr, io.EOF) {
			return done, nil
		}
	}
}

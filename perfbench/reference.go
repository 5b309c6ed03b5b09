package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gem5prof/internal/experiments"
)

// referenceJSON is the output oracle: digests recorded at a known-good
// commit, with the host they were recorded on.
//
//go:embed reference.json
var referenceJSON []byte

// cellRef is one cell's reference digests: the guest result alone, and the
// guest result with the host report (equal for guest-only cells).
type cellRef struct {
	Guest string `json:"guest"`
	Full  string `json:"full"`
}

// reference is reference.json: the commit and host the digests were
// recorded at, and the digests themselves.
type reference struct {
	Commit string   `json:"commit"`
	Host   hostInfo `json:"host"`
	// Seeds are the seeds the digests were recorded at; they agree, since
	// no guest program draws from the system RNG.
	Seeds []int64            `json:"seeds"`
	Cells map[string]cellRef `json:"cells"`
	Suite map[string]string  `json:"suite"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// sha is the hex SHA-256 of s.
func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// recordSeeds are the seeds recordReference runs every cell at.
var recordSeeds = []int64{1, 2}

// recordReference runs every cell at each record seed and the suite once,
// and writes their digests with this host's context to path. It fails if
// a cell fails its checksum or if the seeds disagree.
func recordReference(path, commit string, log io.Writer) error {
	ref := reference{Commit: commit, Host: thisHost(), Seeds: recordSeeds,
		Cells: map[string]cellRef{}, Suite: map[string]string{}}
	for _, seed := range recordSeeds {
		for _, c := range append(cosimCells(seed), guestCells(seed)...) {
			g, host, err := runUntraced(c)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", c.name, seed, err)
			}
			if !g.ChecksumOK {
				return fmt.Errorf("%s seed %d: guest checksum failed", c.name, seed)
			}
			r := cellRef{Guest: digest(g, nil), Full: digest(g, host)}
			if old, ok := ref.Cells[c.name]; ok && old != r {
				return fmt.Errorf("%s: seed %d digests differ from seed %d", c.name, seed, recordSeeds[0])
			}
			ref.Cells[c.name] = r
			fmt.Fprintf(log, "%s seed %d: %.12s\n", c.name, seed, r.Full)
		}
	}
	experiments.ResetCaches()
	for oc := range experiments.RunMany(suiteIDs, experiments.Options{Quick: true}) {
		if oc.Err != nil {
			return fmt.Errorf("suite %s: %w", oc.ID, oc.Err)
		}
		ref.Suite[oc.ID] = sha(oc.Res.Render())
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Package gio reads and writes graphs and statistics records in simple
// line-oriented formats: tab-separated edge lists (the lingua franca of
// graph benchmarks) and JSON stat summaries.
package gio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kronvalid/internal/graph"
	"kronvalid/internal/stream"
)

// WriteEdgeList writes every arc as "u\tv\n". For undirected graphs each
// edge appears in both orientations (matching adjacency storage); use
// WriteEdgeListUndirected for one line per edge.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	return writePairs(w, g.EachArc)
}

// WriteEdgeListUndirected writes one "u\tv" line per undirected edge
// (u <= v). Panics if g is not symmetric.
func WriteEdgeListUndirected(w io.Writer, g *graph.Graph) error {
	return writePairs(w, g.EachEdgeUndirected)
}

// pairBatch is how many lines writePairs hands the ArcTextWriter per
// Consume. The writer, not this, sets the size of each Write.
const pairBatch = 2048

// writePairs writes "u\tv\n" lines through an ArcTextWriter and flushes
// it. Iteration stops on the first write error, which is returned as-is:
// the final Consume and Flush only run on the error-free path, so they
// can never mask a mid-stream error.
func writePairs(w io.Writer, each func(fn func(u, v int32) bool)) error {
	t := NewArcTextWriter(w)
	batch := make([]stream.Arc, 0, pairBatch)
	var err error
	each(func(u, v int32) bool {
		batch = append(batch, stream.Arc{U: int64(u), V: int64(v)})
		if len(batch) == pairBatch {
			err = t.Consume(batch)
			batch = batch[:0]
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if err := t.Consume(batch); err != nil {
		return err
	}
	return t.Flush()
}

// ReadEdgeList parses "u<sep>v" lines (tab or spaces), ignoring blank
// lines and lines starting with '#' or '%'. Vertices must be in [0, n).
// If symmetrize is true the result is the undirected closure.
func ReadEdgeList(r io.Reader, n int, symmetrize bool) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []graph.Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gio: line %d: want two fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: %v", lineNo, err)
		}
		if u < 0 || u >= int64(n) || v < 0 || v >= int64(n) {
			return nil, fmt.Errorf("gio: line %d: vertex out of range [0,%d)", lineNo, n)
		}
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return graph.FromEdges(n, edges, symmetrize), nil
}

// GraphStats is the JSON-serializable summary the CLIs emit: the §VI
// table row for one matrix.
type GraphStats struct {
	Name      string `json:"name"`
	Vertices  int64  `json:"vertices"`
	Edges     int64  `json:"edges"`
	Loops     int64  `json:"loops"`
	Triangles int64  `json:"triangles"`
	MaxDegree int64  `json:"max_degree"`
}

// WriteStats writes a JSON stats record.
func WriteStats(w io.Writer, s GraphStats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadStats parses a JSON stats record.
func ReadStats(r io.Reader) (GraphStats, error) {
	var s GraphStats
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}

package graph

import (
	"fmt"

	"mwmerge/internal/matrix"
)

// Dataset describes one named graph from the paper's evaluation (Tables
// 4-6). Nodes and Edges are the full published sizes in millions; Kind
// selects which generator reproduces its statistics when a functional
// (scaled-down) instance is needed.
type Dataset struct {
	ID        string
	Desc      string
	NodesM    float64 // millions of nodes
	AvgDegree float64
	EdgesM    float64 // millions of edges
	Kind      Kind
	Table     int // paper table the dataset appears in (4, 5 or 6)
}

// Kind identifies the generator family that statistically matches a
// dataset: social/web graphs are power-law, road networks and meshes are
// near-uniform low degree, Sy-* graphs are Erdős–Rényi by construction.
type Kind int

const (
	KindUniform Kind = iota // Erdős–Rényi
	KindPowerLaw
	KindRMAT
	KindRoad // banded chain-with-branches road network
)

func (k Kind) String() string {
	switch k {
	case KindUniform:
		return "uniform"
	case KindPowerLaw:
		return "power-law"
	case KindRMAT:
		return "rmat"
	case KindRoad:
		return "road"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Nodes returns the full-scale node count.
func (d Dataset) Nodes() uint64 { return uint64(d.NodesM * 1e6) }

// Edges returns the full-scale edge count.
func (d Dataset) Edges() uint64 { return uint64(d.EdgesM * 1e6) }

// Table4 lists the graphs used against custom-hardware benchmarks
// (paper Table 4).
var Table4 = []Dataset{
	{ID: "FR", Desc: "Flickr", NodesM: 0.82, AvgDegree: 12.00, EdgesM: 9.84, Kind: KindPowerLaw, Table: 4},
	{ID: "FB", Desc: "Facebook", NodesM: 2.93, AvgDegree: 14.31, EdgesM: 41.92, Kind: KindPowerLaw, Table: 4},
	{ID: "Wiki", Desc: "Wikipedia", NodesM: 3.56, AvgDegree: 23.81, EdgesM: 84.75, Kind: KindPowerLaw, Table: 4},
	{ID: "RMAT", Desc: "RMATScale23", NodesM: 8.38, AvgDegree: 16.02, EdgesM: 134.22, Kind: KindRMAT, Table: 4},
	{ID: "LJ", Desc: "LiveJournal", NodesM: 7.80, AvgDegree: 14.38, EdgesM: 69.00, Kind: KindPowerLaw, Table: 4},
	{ID: "WK", Desc: "Wikipedia(edge-centric)", NodesM: 2.40, AvgDegree: 2.08, EdgesM: 5.00, Kind: KindPowerLaw, Table: 4},
	{ID: "TW", Desc: "Twitter", NodesM: 41.6, AvgDegree: 35.30, EdgesM: 1468.40, Kind: KindPowerLaw, Table: 4},
	{ID: "web-ND", Desc: "web-NotreDame", NodesM: 0.33, AvgDegree: 4.61, EdgesM: 1.45, Kind: KindPowerLaw, Table: 4},
	{ID: "web-Go", Desc: "web-Google", NodesM: 0.88, AvgDegree: 5.83, EdgesM: 5.11, Kind: KindPowerLaw, Table: 4},
	{ID: "web-Be", Desc: "web-Berkstan", NodesM: 0.69, AvgDegree: 11.09, EdgesM: 7.60, Kind: KindPowerLaw, Table: 4},
	{ID: "web-Ta", Desc: "wiki-Talk", NodesM: 2.39, AvgDegree: 2.10, EdgesM: 5.02, Kind: KindPowerLaw, Table: 4},
}

// Table5 lists the graphs used against the GPU benchmark (paper Table 5).
var Table5 = []Dataset{
	{ID: "ara-05", Desc: "arabic-2005", NodesM: 22.70, AvgDegree: 28.19, EdgesM: 640.00, Kind: KindPowerLaw, Table: 5},
	{ID: "it-04", Desc: "it-2004", NodesM: 41.30, AvgDegree: 27.85, EdgesM: 1150.10, Kind: KindPowerLaw, Table: 5},
	{ID: "sk-05", Desc: "sk-2005", NodesM: 50.60, AvgDegree: 38.53, EdgesM: 1949.40, Kind: KindPowerLaw, Table: 5},
}

// Table6 lists the graphs used against CPU and co-processor (paper
// Table 6). The Sy-* entries are the paper's synthetic Erdős–Rényi graphs.
var Table6 = []Dataset{
	{ID: "patents", Desc: "patents", NodesM: 3.77, AvgDegree: 3.97, EdgesM: 14.97, Kind: KindPowerLaw, Table: 6},
	{ID: "venturiLevel3", Desc: "venturiLevel3", NodesM: 4.03, AvgDegree: 2.00, EdgesM: 8.05, Kind: KindUniform, Table: 6},
	{ID: "rajat31", Desc: "rajat31", NodesM: 4.69, AvgDegree: 4.33, EdgesM: 20.32, Kind: KindUniform, Table: 6},
	{ID: "italy_osm", Desc: "italy_osm", NodesM: 6.69, AvgDegree: 1.05, EdgesM: 7.01, Kind: KindRoad, Table: 6},
	{ID: "wb-edu", Desc: "wb-edu", NodesM: 9.85, AvgDegree: 5.81, EdgesM: 57.16, Kind: KindPowerLaw, Table: 6},
	{ID: "germany_osm", Desc: "germany_osm", NodesM: 11.55, AvgDegree: 1.07, EdgesM: 12.37, Kind: KindRoad, Table: 6},
	{ID: "asia_osm", Desc: "asia_osm", NodesM: 11.95, AvgDegree: 1.06, EdgesM: 12.71, Kind: KindRoad, Table: 6},
	{ID: "road_central", Desc: "road_central", NodesM: 14.08, AvgDegree: 1.02, EdgesM: 16.93, Kind: KindRoad, Table: 6},
	{ID: "hugetrace", Desc: "hugetrace", NodesM: 16.00, AvgDegree: 1.50, EdgesM: 24.00, Kind: KindRoad, Table: 6},
	{ID: "hugebubbles", Desc: "hugebubbles", NodesM: 19.46, AvgDegree: 1.50, EdgesM: 29.18, Kind: KindRoad, Table: 6},
	{ID: "europe_osm", Desc: "europe_osm", NodesM: 50.91, AvgDegree: 1.06, EdgesM: 54.05, Kind: KindRoad, Table: 6},
	{ID: "Sy-60M", Desc: "synthetic ER", NodesM: 60.00, AvgDegree: 3.00, EdgesM: 180.00, Kind: KindUniform, Table: 6},
	{ID: "Sy-70M", Desc: "synthetic ER", NodesM: 70.00, AvgDegree: 3.00, EdgesM: 210.00, Kind: KindUniform, Table: 6},
	{ID: "Sy-130M", Desc: "synthetic ER", NodesM: 130.00, AvgDegree: 2.23, EdgesM: 290.00, Kind: KindUniform, Table: 6},
	{ID: "Sy-.5B", Desc: "synthetic ER", NodesM: 500.00, AvgDegree: 1.74, EdgesM: 870.00, Kind: KindUniform, Table: 6},
	{ID: "Sy-1B", Desc: "synthetic ER", NodesM: 1000.00, AvgDegree: 2.58, EdgesM: 2580.00, Kind: KindUniform, Table: 6},
	{ID: "Sy-2B", Desc: "synthetic ER", NodesM: 2000.00, AvgDegree: 1.14, EdgesM: 2270.00, Kind: KindUniform, Table: 6},
}

// Lookup finds a dataset by ID across all tables.
func Lookup(id string) (Dataset, error) {
	for _, tab := range [][]Dataset{Table4, Table5, Table6} {
		for _, d := range tab {
			if d.ID == id {
				return d, nil
			}
		}
	}
	return Dataset{}, fmt.Errorf("graph: unknown dataset %q", id)
}

// All returns every registered dataset.
func All() []Dataset {
	out := make([]Dataset, 0, len(Table4)+len(Table5)+len(Table6))
	out = append(out, Table4...)
	out = append(out, Table5...)
	out = append(out, Table6...)
	return out
}

// Instantiate builds a scaled-down functional instance of the dataset: a
// synthetic graph with maxNodes nodes (capped at the dataset's own size)
// and the dataset's average degree, generated by the family that matches
// its degree distribution. The full-scale (N, nnz) are still used by the
// analytic models; this instance exists to run the real datapath.
func (d Dataset) Instantiate(maxNodes uint64, seed int64) (*matrix.COO, error) {
	n := d.Nodes()
	if n > maxNodes {
		n = maxNodes
	}
	if n == 0 {
		return nil, fmt.Errorf("graph: dataset %s has zero nodes", d.ID)
	}
	switch d.Kind {
	case KindPowerLaw:
		return Zipf(n, d.AvgDegree, 1.8, seed)
	case KindRoad:
		return RoadNetwork(n, d.AvgDegree, seed)
	case KindRMAT:
		return RMAT(rmatScale(n), d.AvgDegree, Graph500Params(), seed)
	default:
		return ErdosRenyi(n, d.AvgDegree, seed)
	}
}

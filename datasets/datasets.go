// Package datasets exposes the repository's deterministic benchmark
// graphs through the public fairclique API: the six stand-ins for the
// paper's evaluation datasets (Table I) and the four labelled
// case-study graphs (Fig. 10). The real graphs are not available
// offline; internal/gen documents what each stand-in imitates.
package datasets

import (
	"fairclique"
	"fairclique/internal/gen"
	"fairclique/internal/graph"
)

// Info describes one benchmark dataset stand-in.
type Info struct {
	// Name is the dataset identifier (e.g. "dblp-sim").
	Name string
	// Description says which real dataset it imitates.
	Description string
	// Ks is the k sweep range the paper uses for this dataset.
	Ks []int
	// DefaultK and DefaultDelta are the paper's default parameters.
	DefaultK, DefaultDelta int
}

// Names lists the datasets in the paper's Table I order.
func Names() []string {
	var out []string
	for _, d := range gen.Datasets() {
		out = append(out, d.Name)
	}
	return out
}

// Describe returns metadata for the named dataset.
func Describe(name string) (Info, error) {
	d, err := gen.DatasetByName(name)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Name:         d.Name,
		Description:  d.Description,
		Ks:           append([]int(nil), d.Ks...),
		DefaultK:     d.DefaultK,
		DefaultDelta: d.DefaultDelta,
	}, nil
}

// Load builds the named dataset at the given scale (1.0 = default
// size; smaller is faster). Identical (name, scale) yields an identical
// graph on every platform.
func Load(name string, scale float64) (*fairclique.Graph, error) {
	d, err := gen.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	return toPublic(d.Build(scale)), nil
}

// LoadSNAP loads a SNAP-format edge-list file and optional attribute
// file ("" for none) through the streaming CSR builder — the ingest
// path for external or gengraph-produced paper-scale instances. See
// the package README for the format contract and a reproducible
// multi-million-edge recipe.
func LoadSNAP(edgePath, attrPath string) (*fairclique.Graph, error) {
	return fairclique.ReadSNAPFiles(edgePath, attrPath)
}

// CaseStudy is a labelled domain graph for one of the four Fig. 10
// scenarios, with the paper's query parameters.
type CaseStudy struct {
	// Name is "aminer", "dbai", "nba" or "imdb".
	Name string
	// Graph is the attributed graph.
	Graph *fairclique.Graph
	// Labels names each vertex.
	Labels []string
	// AttrNames names attribute values a and b (e.g. "DB", "AI").
	AttrNames [2]string
	// K and Delta are the paper's query parameters (5 and 3).
	K, Delta int
}

// CaseStudies returns all four case studies.
func CaseStudies() []*CaseStudy {
	var out []*CaseStudy
	for _, cs := range gen.CaseStudies() {
		out = append(out, convertCase(cs))
	}
	return out
}

// LoadCaseStudy returns the named case study.
func LoadCaseStudy(name string) (*CaseStudy, error) {
	cs, err := gen.CaseStudyByName(name)
	if err != nil {
		return nil, err
	}
	return convertCase(cs), nil
}

func convertCase(cs *gen.CaseStudy) *CaseStudy {
	return &CaseStudy{
		Name:      cs.Name,
		Graph:     toPublic(cs.Graph),
		Labels:    append([]string(nil), cs.Labels...),
		AttrNames: cs.AttrNames,
		K:         cs.K,
		Delta:     cs.Delta,
	}
}

// toPublic copies an internal graph into the public Graph type.
func toPublic(ig *graph.Graph) *fairclique.Graph {
	g := fairclique.NewGraph(int(ig.N()))
	for v := int32(0); v < ig.N(); v++ {
		g.SetAttr(int(v), ig.Attr(v))
	}
	for e := int32(0); e < ig.M(); e++ {
		u, v := ig.Edge(e)
		g.AddEdge(int(u), int(v))
	}
	return g
}

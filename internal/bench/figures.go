package bench

// Report is what a figure run returns: a value that renders itself as
// the figure's text tables and marshals to JSON. Every result type in
// this package implements it, so a harness needs one print path and one
// JSON writer for all of them.
type Report interface {
	Format() string
}

// Figure is one entry of the figure table.
type Figure struct {
	// ID is what ohpc-bench -fig selects the figure by.
	ID    string
	Title string
	// Run regenerates the figure under the harness options; each
	// figure's own defaults, and what -quick, -reps and -calls do to
	// them, live in its Config's fill.
	Run func(Options) (Report, error)
}

// Figures is the figure table, in the order ohpc-bench -fig=all runs it.
func Figures() []Figure {
	return []Figure{
		{"1", "Figure 1: ORB communication mechanism",
			func(o Options) (Report, error) { return RunFigure1(o) }},
		{"2", "Figure 2: a remote request using capabilities",
			func(o Options) (Report, error) { return RunFigure2(o) }},
		{"3", "Figure 3: adaptive use of the authentication capability",
			func(o Options) (Report, error) { return RunFigure3(o) }},
		{"4", "Figure 4: adaptive protocol selection under migration",
			func(o Options) (Report, error) { return RunFigure4(Fig4Config{}, o) }},
		{"l1", "L1 (extension): udprel custom protocol goodput vs. datagram loss",
			func(o Options) (Report, error) { return RunLossSweep(LossSweepConfig{}, o) }},
		{"e1", E1FigureTitle,
			func(o Options) (Report, error) { return RunFigureE1(E1Config{}, o) }},
		{"5", "Figure 5: bandwidth vs. array size",
			func(o Options) (Report, error) { return runFigure5All(o) }},
		{"a1", AsyncFigureTitle,
			func(o Options) (Report, error) { return runFigureAsyncAll(o) }},
		{"r1", R1FigureTitle,
			func(o Options) (Report, error) { return RunFigureR1(R1Config{}, o) }},
		{"d1", D1FigureTitle,
			func(o Options) (Report, error) { return RunFigureD1(D1Config{}, o) }},
		{"s1", S1FigureTitle,
			func(o Options) (Report, error) { return RunFigureS1(S1Config{}, o) }},
		{"o1", O1FigureTitle,
			func(o Options) (Report, error) { return RunFigureO1(O1Config{}, o) }},
		{"o2", O2FigureTitle,
			func(o Options) (Report, error) { return RunFigureO2(O2Config{}, o) }},
	}
}

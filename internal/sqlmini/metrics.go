package sqlmini

import "github.com/aigrepro/aig/internal/obs"

// Engine-level metrics, registered in the process-wide registry. The
// instruments are single atomic words; counting is always on.
var (
	metricQueries = obs.Default.NewCounter("aig_sqlmini_queries_total",
		"queries executed by the sqlmini engine")
	metricRowsScanned = obs.Default.NewCounter("aig_sqlmini_rows_scanned_total",
		"base-table rows the executor examined: every row of a scanned table, and only the matches of an index probe")
	metricRowsReturned = obs.Default.NewCounter("aig_sqlmini_rows_returned_total",
		"result rows produced by the sqlmini engine")
)

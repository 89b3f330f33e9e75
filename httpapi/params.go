package httpapi

import "repro/internal/params"

// Query-parameter validation is shared with the cluster coordinator
// through internal/params, so /quantile, /cdf and /histogram parse
// identically on every role. These names bind it for this package.
var (
	parsePhiList     = params.PhiList
	parseFiniteFloat = params.FiniteFloat
	parseBucketCount = params.BucketCount
	parseWindow      = params.Window
)

package fleet

// MergeDBStatsForTest exposes the shard-totals merge to the black-box tests.
var MergeDBStatsForTest = mergeDBStats

module costperf/bench

go 1.22

require costperf v0.0.0

replace costperf => ../

module datamaran/bench

go 1.24

require datamaran v0.0.0

replace datamaran => ../

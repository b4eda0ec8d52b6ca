module bayestree/bench

go 1.22

require bayestree v0.0.0

replace bayestree => ../

package main

// committedDigests pins the SHA-256 of each harness call's rendered
// tables, per workload and seed, in call order. Seed 1 is the development
// seed; seed 97 is held out: no tuning run used it. A run with any other
// seed checks only that its iterations agree. The digests of Fig 11 and
// Fig 12 repeat across seeds: both harnesses are seed-independent at the
// precision their tables print.
var committedDigests = map[string]map[uint64][]string{
	"paper-figs": {
		1: {
			"54d796b870cbd5ffdbf0f3814c8fdf87a3cca1f7dc5a0491507e60e868a0ff0e", // RunPolicyComparison
			"ee04ada136e27ed30c2c2448885a0de6a222f654ee1345b91921d93ad170d81f", // RunGranularity
		},
		97: {
			"ba2672f56eb66e9bcaf859e5b971ec38c3b66c43a429e5231453456a2ce11617",
			"ee04ada136e27ed30c2c2448885a0de6a222f654ee1345b91921d93ad170d81f",
		},
	},
	"observed-sweep": {
		1: {
			"6ba8af8f10a993f9699cbf23d57e374383c1ace64254ef9573e22e6acecf5129", // RunChaos
			"c74d78d55007cf05e4daf66e38f97b5788df55d1a7fc19da4bf39923861971da", // RunOverload
			"c0604581f9cf834e2a9f2f500f3ca180ae8577c32d84883a13b8ee8bb262de2c", // RunDomains
			"277343f3c1f81d6d12e3ef2150befefd7d7a8aec487f45d1aa98d324f4eef0df", // RunHeal
			"81bdd853e5c8ce06de3bee9451bd4484c142bbbb5f6b5eeb904f21785f81227a", // RunObserve
			"e8f8abd0553474dfb767feb8d1bbe64af5c0c6b6ffc9f2f310455cf90c8d396c", // RunRevive
		},
		97: {
			"86f0bfe5147ced5630f85e4aaded184507ff0f9473b0ee1d25ff2f2db0e57a56",
			"da822816bb1d0550efd074e7f68c123bf0936ff7c4468109cf33b81138d6690f",
			"48417c9ae6bba04bf5f3ad0388d4262eaa4b00886ad15f18ee740a49f83d673e",
			"5ec7711c2d275e40499e4eb1a15846ddf89f34cd32dcf8cae8daab6e49062705",
			"2aa1e9c40700a39b607f14d084f921101a4c0629fd7e4b9a7816ab1f27aa22f5",
			"99ae228b0b8cc5968b32ebf48878a45ebd329054ab7762c178378cc0f5cbe371",
		},
	},
	"trace-profile": {
		1: {
			"24a0793b863e978e735c320aaa06dcd3926067a361f14e4667a18ca874d64a3a", // RunWSSPrediction
			"5496c65d227f36564d4da4c8d2ea84072711d3f09b5f1175cbd1b8df11383f09", // RunCalibration
		},
		97: {
			"24a0793b863e978e735c320aaa06dcd3926067a361f14e4667a18ca874d64a3a",
			"7670460943c6dc14bd39e7792e61be30fb633169baf5c03305726aa205d310fa",
		},
	},
}

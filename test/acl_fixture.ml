(* ACL result digests pinned for [Test_acl_fixture]: (app, fault label,
   fault, digest of [Test_acl_fixture.render] of the [Acl.analyze]
   result).  Recorded before the access index and the aligner were
   rewritten; every later version must reproduce each digest exactly. *)

let rows : (string * string * string * string) list =
  [
    ("CG", "flip-write", "flip-write:382110:20", "af0035e0d8b63c095687ad3a78680d71");
    ("CG", "flip-mem", "flip-mem:254718:266:51", "ef313a44c17f9fd6fbd12916d1c027d3");
    ("CG", "stuck-at", "mask-write:509437:-1:1073741824:0", "16ab1271bd5864dccc0e3c5238e481e4");
    ("CG", "burst", "mask-write:191038:-1:0:193514046488576", "18d8ffeab3fa6f2fdc134301d7eddd97");
    ("CG", "divergent", "flip-write:382085:0", "0c818ae756e9e55a1de8910fe75e4346");
    ("CG", "crashing", "flip-write:382077:62", "59f2929fbb6b2d85e1615ef82a5b1381");
    ("MG", "flip-write", "flip-write:234944:20", "fc656de0936e0c8718ac8c930704a55d");
    ("MG", "flip-mem", "flip-mem:156585:717:51", "d615f52868d5ac8f0967c1732fb2230a");
    ("MG", "stuck-at", "mask-write:313175:-1:1073741824:0", "3d53842642025045aab0a8d25d007654");
    ("MG", "burst", "mask-write:117438:-1:0:193514046488576", "886e6e1763400fabb96a9a3e5f24bced");
    ("MG", "divergent", "flip-write:235038:0", "6dac8251efbbc81531216c08c63ddf9a");
    ("MG", "crashing", "flip-write:234879:62", "fbd9055edf49595513f5565ea64b84ab");
    ("LU", "flip-write", "flip-write:88560:20", "ba75b9c56577f8c762d6ca7ae553c02c");
    ("LU", "flip-mem", "flip-mem:59031:73:51", "6c904c7150bc64d5bea439ca197f627a");
    ("LU", "stuck-at", "mask-write:118060:-1:1073741824:0", "faf3b34c08a5654e1b3aef53e2947152");
    ("LU", "burst", "mask-write:44272:-1:0:193514046488576", "a0b6d7ae5ed75f527586de2e94bdc65b");
    ("LU", "divergent", "flip-write:88570:0", "ffe374a63c47852e4e0d672a714385cf");
    ("LU", "crashing", "flip-write:88544:62", "11eeefa64804f1d4521fe5ab22b454cb");
    ("BT", "flip-write", "flip-write:114080:20", "dd0a16f7a74d515b4b3c65aa0da4571a");
    ("BT", "flip-mem", "flip-mem:76051:315:51", "34081a37ea46110ed04e42fb1e7824dd");
    ("BT", "stuck-at", "mask-write:152099:-1:1073741824:0", "702a69ce1011c702a1afcc21ff209a8b");
    ("BT", "burst", "mask-write:57036:-1:0:193514046488576", "b9d252906e539e28604ecbefa712539d");
    ("BT", "divergent", "flip-write:114076:0", "408c59a7d13c67d8c226a48bba4d0f95");
    ("BT", "crashing", "flip-write:114073:62", "21669b81f5520f00187e9555f873e927");
    ("IS", "flip-write", "flip-write:201839:20", "38e8593cc4cce1c0b80323ec876988a4");
    ("IS", "flip-mem", "flip-mem:134559:715:51", "25b3f59901814d1b80f561bca9149978");
    ("IS", "stuck-at", "mask-write:269119:-1:1073741824:0", "0624acb952f7903f6119fa4572c313f8");
    ("IS", "burst", "mask-write:100919:-1:0:193514046488576", "79d7a5e00fe5148624086fdf019badb9");
    ("IS", "divergent", "flip-write:201844:0", "f9b561706e80b31c1590e2e6e10d996c");
    ("IS", "crashing", "flip-write:201841:62", "722460cfec328df43f956d67d8b66f42");
    ("DC", "flip-write", "flip-write:97247:20", "75568b57bd8e9698a97c269139581b96");
    ("DC", "flip-mem", "flip-mem:64827:1038:51", "889b9e2c23810f8e51a8635a7a78f714");
    ("DC", "stuck-at", "mask-write:129656:-1:1073741824:0", "438c813f5f4eb6ae3a62ed2091906ca0");
    ("DC", "burst", "mask-write:48619:-1:0:193514046488576", "4cc628516d77ce580b16cef4a63b9113");
    ("DC", "divergent", "flip-write:97257:0", "93619bf387b9f5effbe67a513522218d");
    ("DC", "crashing", "flip-write:97241:62", "26ed0b3b2f39ab03e863933642558f73");
    ("SP", "flip-write", "flip-write:149938:20", "335a712b4f2af29628a4e977eeedef46");
    ("SP", "flip-mem", "flip-mem:99959:307:51", "bf918b31b2263ad345c4b242aafed825");
    ("SP", "stuck-at", "mask-write:199916:-1:1073741824:0", "20d2823063217eab32104caad0210fc5");
    ("SP", "burst", "mask-write:74968:-1:0:193514046488576", "92df2b52fc48a7955888a2bfa5ca7b73");
    ("SP", "divergent", "flip-write:149948:0", "129dc569e0d7639cbe0ba94c1cacb2b6");
    ("SP", "crashing", "flip-write:149939:62", "0d15eca1fffbd2cf705efcefceb1e215");
    ("FT", "flip-write", "flip-write:227814:20", "792b1d951d4b72c0b9f2e961c9300972");
    ("FT", "flip-mem", "flip-mem:151875:326:51", "4fbaf83bca0d4d4ef7e5b9622575270b");
    ("FT", "stuck-at", "mask-write:303752:-1:1073741824:0", "bbf25b861e059d432e3a97481546c8f5");
    ("FT", "burst", "mask-write:113905:-1:0:193514046488576", "0fa2b632070de9e776b91f5a25020faf");
    ("FT", "divergent", "flip-write:227819:0", "df454d6d2a0df99dabe34ef4b2c6df8f");
    ("FT", "crashing", "flip-write:227810:62", "a90c5427711584b8eca31a0ec64a6b62");
    ("KMEANS", "flip-write", "flip-write:219542:20", "7fbcaba0fbdeebb084a1a4e374858bcf");
    ("KMEANS", "flip-mem", "flip-mem:146381:682:51", "499692564f5e95f52df610891423e10c");
    ("KMEANS", "stuck-at", "mask-write:292695:-1:1073741824:0", "b8151199055e130eb51f3dba0e224320");
    ("KMEANS", "burst", "mask-write:109797:-1:0:193514046488576", "eac0e7f8fc10d116a283e7de03b722a7");
    ("KMEANS", "divergent", "flip-write:219552:0", "ecb503f6b1398d52286e12970e882480");
    ("KMEANS", "crashing", "flip-write:219537:62", "94643046b3d3c0a33c8e8c030f84b439");
    ("LULESH", "flip-write", "flip-write:149838:20", "19db5db14da6203e3c7b418cf1a53eca");
    ("LULESH", "flip-mem", "flip-mem:99894:268:51", "7f77d6feb1684aea007de79fd4f0482f");
    ("LULESH", "stuck-at", "mask-write:199778:-1:1073741824:0", "282bcb1c3ed7ff1ba13ba068a7719b74");
    ("LULESH", "burst", "mask-write:74916:-1:0:193514046488576", "7951b620c46806e6a73a206ac65940a6");
    ("LULESH", "divergent", "flip-write:149848:0", "6b85564c78fb77c1109995fb85597e90");
    ("LULESH", "crashing", "flip-write:149835:62", "976e3c119ad06c3cf083ab06a36bf096");
  ]

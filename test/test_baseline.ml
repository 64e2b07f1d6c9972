(* The 55-row byte-identity baseline: every named platform runs the five
   paper applications at quick scale, and cycles, checksum and a digest
   of the full counter list must equal the values pinned below.  The
   simulator is deterministic, so any change to a machine's wiring,
   timing or protocol traffic shows up here as a changed row.

   Rows run at 8 processors, except the uniprocessor [dec] (1) and [hs]
   (16: at 8 or fewer processors HS stays inside one node and sends no
   DSM messages at all).

   Each row is also checked under its topology spelling, built through
   [Machines.topology]; only [treadmarks-eager], whose eager-release
   lock hints a spec cannot express, has none. *)

module Registry = Shm_apps.Registry
module Platform = Shm_platform.Platform
module Report = Shm_platform.Report
module Machines = Shm_platform.Machines
module Fabric = Shm_net.Fabric
module Lifecycle = Shm_sim.Lifecycle

let procs_of = function "dec" -> 1 | "hs" -> 16 | _ -> 8

(* Second spellings: the topology expression each named machine is. *)
let specs =
  [
    ("dec", "1@dec");
    ("treadmarks", "lrc*8@dec");
    ("treadmarks-kernel", "lrc*8@dec-kernel");
    ("treadmarks-erc", "erc*8@dec");
    ("ivy", "ivy*64@dec");
    ("sgi", "mesi*8@sgi");
    ("sgi-fast", "mesi*8@sgi-fast");
    ("as", "lrc*256@sim");
    ("ah", "directory*256@sim");
    ("hs", "lrc(mesi*8 x 32)@sim");
  ]

(* (platform, app, cycles, checksum as %h, MD5 of "name=value" lines) *)
let golden =
  [
    ("dec", "sor", 1429948, "0x1.70d4575719ee4p+8", "d41d8cd98f00b204e9800998ecf8427e");
    ("dec", "tsp", 3202237, "0x1.1f2p+11", "d41d8cd98f00b204e9800998ecf8427e");
    ("dec", "water", 32291524, "0x1.293cc893f694ap+8", "d41d8cd98f00b204e9800998ecf8427e");
    ("dec", "ilink-clp", 24602964, "0x1.0eeb716a5b77bp+5", "d41d8cd98f00b204e9800998ecf8427e");
    ("dec", "ilink-bad", 8374550, "0x1.0a38884738764p+8", "d41d8cd98f00b204e9800998ecf8427e");
    ("treadmarks", "sor", 1982071, "0x1.70d4575719f03p+8", "6d71f1d2580f8b0533411f8f39a3fe7c");
    ("treadmarks", "tsp", 3199371, "0x1.1f2p+11", "1ecfeb194dc4011da8827d31a7091a39");
    ("treadmarks", "water", 51409214, "0x1.293cc893f694dp+8", "dd9cfca4dc89d39a11b3e24259fcecb6");
    ("treadmarks", "ilink-clp", 4995113, "0x1.0eeb716a5b77bp+5", "8ba6ea08c0b65f36039c0d4ad5f5e411");
    ("treadmarks", "ilink-bad", 13683340, "0x1.0a38884738764p+8", "ab104a47812c182192ca8acf64ae2344");
    ("treadmarks-kernel", "sor", 1026816, "0x1.70d4575719f03p+8", "6d71f1d2580f8b0533411f8f39a3fe7c");
    ("treadmarks-kernel", "tsp", 1813980, "0x1.1f2p+11", "37b0c09e69cdf574310be90329e89dc7");
    ("treadmarks-kernel", "water", 28650284, "0x1.293cc893f694dp+8", "bf685331a6002c0671ee6e093915be77");
    ("treadmarks-kernel", "ilink-clp", 4066037, "0x1.0eeb716a5b77bp+5", "8ba6ea08c0b65f36039c0d4ad5f5e411");
    ("treadmarks-kernel", "ilink-bad", 8506570, "0x1.0a38884738764p+8", "ab104a47812c182192ca8acf64ae2344");
    ("treadmarks-eager", "sor", 1982071, "0x1.70d4575719f03p+8", "6d71f1d2580f8b0533411f8f39a3fe7c");
    ("treadmarks-eager", "tsp", 3197181, "0x1.1f2p+11", "211045c669ae0043eb505ada1a53927e");
    ("treadmarks-eager", "water", 51409214, "0x1.293cc893f694dp+8", "dd9cfca4dc89d39a11b3e24259fcecb6");
    ("treadmarks-eager", "ilink-clp", 4995113, "0x1.0eeb716a5b77bp+5", "8ba6ea08c0b65f36039c0d4ad5f5e411");
    ("treadmarks-eager", "ilink-bad", 13683340, "0x1.0a38884738764p+8", "ab104a47812c182192ca8acf64ae2344");
    ("treadmarks-erc", "sor", 3605650, "0x1.70d4575719f03p+8", "3bafc84c5183fbb742ab3d1b53d7b266");
    ("treadmarks-erc", "tsp", 5988964, "0x1.1f2p+11", "30f294824badd2707db9150230b17978");
    ("treadmarks-erc", "water", 129064121, "0x1.293cc893f694dp+8", "db05fb5619f1014f45ecf31fc427fb7b");
    ("treadmarks-erc", "ilink-clp", 5588763, "0x1.0eeb716a5b77bp+5", "451d87aabdd17e4f8499f1c498e1f00e");
    ("treadmarks-erc", "ilink-bad", 15075829, "0x1.0a38884738764p+8", "c86f36cab540118909ef7dfa5a8e0e90");
    ("ivy", "sor", 6827261, "0x1.70d4575719f03p+8", "ac61091be85aa1a111943ba302a59973");
    ("ivy", "tsp", 7531031, "0x1.1f2p+11", "695ed6fdf1c942fd7b14f3d1e2a78a72");
    ("ivy", "water", 274456104, "0x1.293cc893f694dp+8", "4a6d56a3894b588c16043d317f32d4e8");
    ("ivy", "ilink-clp", 8710537, "0x1.0eeb716a5b77bp+5", "de0fa3474b38bbc176360d81f2fd27a6");
    ("ivy", "ilink-bad", 23188637, "0x1.0a38884738764p+8", "de74e42ef148965501f58633368c949b");
    ("sgi", "sor", 253837, "0x1.70d4575719f03p+8", "66f74cad97718a62bafb1aa851f474ae");
    ("sgi", "tsp", 864162, "0x1.1f2p+11", "db2063a50840adaf0f2992a771a4844e");
    ("sgi", "water", 7685027, "0x1.293cc893f694dp+8", "f0df1639701485a4d437a8f37f050bb3");
    ("sgi", "ilink-clp", 3227929, "0x1.0eeb716a5b77bp+5", "e7c3aeb8d4875abf7c31775ab1eeca88");
    ("sgi", "ilink-bad", 1847644, "0x1.0a38884738764p+8", "90bd718917c15e2c2b452c0f7daac8be");
    ("sgi-fast", "sor", 204560, "0x1.70d4575719f03p+8", "f9f61d3b08944ecdd3490073e04dcb19");
    ("sgi-fast", "tsp", 860254, "0x1.1f2p+11", "c810d50c1ab3ce49468b64a00d0b0ed1");
    ("sgi-fast", "water", 7658451, "0x1.293cc893f694dp+8", "8979bd3238cefb835b6f9b5c28d768b8");
    ("sgi-fast", "ilink-clp", 3219720, "0x1.0eeb716a5b77bp+5", "8d0cdef8e88d183020645716ec3ae3fe");
    ("sgi-fast", "ilink-bad", 1725898, "0x1.0a38884738764p+8", "357f34b4c5cf009ecfe2d227abc8a976");
    ("as", "sor", 2026022, "0x1.70d4575719f03p+8", "6d71f1d2580f8b0533411f8f39a3fe7c");
    ("as", "tsp", 3257608, "0x1.1f2p+11", "1ecfeb194dc4011da8827d31a7091a39");
    ("as", "water", 52368302, "0x1.293cc893f694dp+8", "3e240185d6e1462a39425c5931a86a3a");
    ("as", "ilink-clp", 5052720, "0x1.0eeb716a5b77bp+5", "8ba6ea08c0b65f36039c0d4ad5f5e411");
    ("as", "ilink-bad", 14260868, "0x1.0a38884738764p+8", "ab104a47812c182192ca8acf64ae2344");
    ("ah", "sor", 294722, "0x1.70d4575719f03p+8", "4d1555eb1ef4e230c836b8408cbb5ca4");
    ("ah", "tsp", 868409, "0x1.1f2p+11", "c0b1903b006e7f04eb8c981af6f0ff96");
    ("ah", "water", 7731051, "0x1.293cc893f694dp+8", "20a67a8a30ad7a4254caf6425e998db5");
    ("ah", "ilink-clp", 3272809, "0x1.0eeb716a5b77bp+5", "040ab40b62cf85d131282326e6327c75");
    ("ah", "ilink-bad", 3016970, "0x1.0a38884738764p+8", "1d9d77a427c779d9658ac86cb1be5f0d");
    ("hs", "sor", 1007366, "0x1.70d4575719effp+8", "adb3670c88c072c4b1bd88ceb240391a");
    ("hs", "tsp", 1667047, "0x1.1f2p+11", "72d1c83b6a4bcecce161aa2a22281543");
    ("hs", "water", 13223605, "0x1.293cc893f694dp+8", "f57cd0ccd079cf36a5167c82f452c69b");
    ("hs", "ilink-clp", 2960765, "0x1.0eeb716a5b77dp+5", "5e1a912dead26decc3dcd1ae1eadb64f");
    ("hs", "ilink-bad", 6995140, "0x1.0a38884738764p+8", "f744b73827fba43279e874facfaf73b8");
  ]

let digest counters =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters)))

let check_row ?procs (p : Platform.t) ~label (name, app, cycles, checksum, dg) =
  let nprocs = match procs with Some n -> n | None -> procs_of name in
  let r =
    try p.Platform.run (Registry.app ~scale:Registry.Quick app) ~nprocs
    with e ->
      Alcotest.failf "%s: %s failed: %s" label app (Printexc.to_string e)
  in
  let tag what = Printf.sprintf "%s %s %s" label app what in
  Alcotest.(check int) (tag "cycles") cycles r.Report.cycles;
  Alcotest.(check string) (tag "checksum") checksum
    (Printf.sprintf "%h" r.Report.checksum);
  Alcotest.(check string) (tag "counter digest") dg (digest r.Report.counters)

let test_named () =
  List.iter
    (fun ((name, _, _, _, _) as row) ->
      check_row (Machines.get name) ~label:name row)
    golden

let test_spelled () =
  List.iter
    (fun ((name, _, _, _, _) as row) ->
      match List.assoc_opt name specs with
      | Some spec -> check_row (Machines.topology spec) ~label:spec row
      | None -> ())
    golden

let test_covers_every_platform () =
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "%s has five pinned rows" name)
        5
        (List.length (List.filter (fun (n, _, _, _, _) -> n = name) golden)))
    Machines.names

(* The software engines under traffic: every software-DSM protocol
   mounted on the [treadmarks] machine, at 4 processors, fault-free,
   under 5% miss and sync drops, and under one crash/restart of node 1
   with checkpoints every 250k cycles.  Tardis refuses crash injection,
   so it has no crash rows.  Same pins as above: cycles, checksum and
   the counter digest, which covers messages, retransmissions and the
   recovery counters. *)

let sw_faults = { Fabric.no_faults with Fabric.drop_miss = 0.05; drop_sync = 0.05 }

let sw_churn =
  { Lifecycle.none with
    Lifecycle.crashes = [ (1, 500_000) ];
    ckpt_interval = 250_000 }

(* (protocol, mode, app, cycles, checksum as %h, counter digest) *)
let sw_golden =
  [
    ("lrc", "clean", "sor", 1511653, "0x1.70d4575719efep+8", "b6fa7fc6e58ee2b9b15d2d79424157d1");
    ("lrc", "clean", "tsp", 2216587, "0x1.1f2p+11", "09722ae323bd8ccc49327fdc76e00779");
    ("lrc", "clean", "water", 61915878, "0x1.293cc893f694dp+8", "0322d18e311a9cb02643848eeda286e1");
    ("lrc", "drop", "sor", 1627034, "0x1.70d4575719efep+8", "c124f22f539b9f17a3271eccdcfdfe90");
    ("lrc", "drop", "tsp", 2172419, "0x1.1f2p+11", "9f0fc5edc631242dc0f11f7a07b9e716");
    ("lrc", "drop", "water", 70934382, "0x1.293cc893f694dp+8", "ddde165e332a66445245113e56713650");
    ("lrc", "crash", "sor", 2498813, "0x1.70d4575719efep+8", "6c8f060028d31600d122ae25baa713f1");
    ("lrc", "crash", "tsp", 2417671, "0x1.1f2p+11", "fffd64ba6f797440c228d2e750e8be7d");
    ("lrc", "crash", "water", 61992940, "0x1.293cc893f694dp+8", "abd92025f0583981fc7003ec58bdcf24");
    ("eager-lrc", "clean", "sor", 1719081, "0x1.70d4575719efep+8", "9006ab6fcd6047e8aba345dc420bd2ef");
    ("eager-lrc", "clean", "tsp", 2079699, "0x1.1f2p+11", "ca4ebd3b719bd42499e385909bf85449");
    ("eager-lrc", "clean", "water", 72559208, "0x1.293cc893f694dp+8", "d62713078db145e6db58b7311025c367");
    ("eager-lrc", "drop", "sor", 2213225, "0x1.70d4575719efep+8", "20e12cff19beb51dc32e0ce7b7940ac8");
    ("eager-lrc", "drop", "tsp", 2374607, "0x1.1f2p+11", "17f93269af3453adcc4091e2cba90b0a");
    ("eager-lrc", "drop", "water", 80865024, "0x1.293cc893f694dp+8", "5d6c67238792f2a1132342ecc3b1d21c");
    ("eager-lrc", "crash", "sor", 2782412, "0x1.70d4575719efep+8", "19e502aef02823c9f30e48bea3fdc225");
    ("eager-lrc", "crash", "tsp", 2352586, "0x1.1f2p+11", "516ef18854117229e7878f04ef0b7c26");
    ("eager-lrc", "crash", "water", 76612536, "0x1.293cc893f694dp+8", "2a61326f7ab097d4b64ee9d13444d807");
    ("erc", "clean", "sor", 2437679, "0x1.70d4575719efep+8", "d7720207ccfab51b2ec59c09ef486a08");
    ("erc", "clean", "tsp", 3069380, "0x1.1f2p+11", "df6ba5d75ee2b49673999c671bec468b");
    ("erc", "clean", "water", 123883613, "0x1.293cc893f694dp+8", "cf448558d90e2b21c4456447af933748");
    ("erc", "drop", "sor", 2788509, "0x1.70d4575719efep+8", "a97a5a8917ed2b6bff8c7bb83e7b3b74");
    ("erc", "drop", "tsp", 3859611, "0x1.1f2p+11", "0f3e21c8e98531a77e72cae06e2527f0");
    ("erc", "drop", "water", 148952336, "0x1.293cc893f694dp+8", "48163ca30d3d025612702fd561ba2a36");
    ("erc", "crash", "sor", 3475604, "0x1.70d4575719efep+8", "08bf54610e15ca91ed1fa04ec70c26df");
    ("erc", "crash", "tsp", 4247831, "0x1.1f2p+11", "a11770ed5c3865aca07457112b96d2b5");
    ("erc", "crash", "water", 128147928, "0x1.293cc893f694dp+8", "60b0e1127bfbb512a804646d48f9ccfa");
    ("ivy", "clean", "sor", 4978778, "0x1.70d4575719efep+8", "8c71d0a777564d30b6053fd367ef9c07");
    ("ivy", "clean", "tsp", 5326693, "0x1.1f2p+11", "a1dd67972656dae1ca4bdd7d9fffd119");
    ("ivy", "clean", "water", 230969541, "0x1.293cc893f694dp+8", "e631cd0da1283853d9a3f2729bb6f4a4");
    ("ivy", "drop", "sor", 5671117, "0x1.70d4575719efep+8", "5cced2381efb315b27ac6cb4ddec7f99");
    ("ivy", "drop", "tsp", 5847864, "0x1.1f2p+11", "656d65809f2a8c36a18c15b421882e1d");
    ("ivy", "drop", "water", 254506304, "0x1.293cc893f694dp+8", "94df8592bc9f645dd90d3c6b280fab4b");
    ("ivy", "crash", "sor", 6340907, "0x1.70d4575719efep+8", "dad33e062b417326e29d2473fd74006b");
    ("ivy", "crash", "tsp", 6302180, "0x1.1f2p+11", "769061a0ce844b67a26927027f6c0251");
    ("ivy", "crash", "water", 246591708, "0x1.293cc893f694dp+8", "053567f8b97bf73913c0d110329ab0ec");
    ("tardis", "clean", "sor", 3915959, "0x1.70d4575719efep+8", "3d8cdacfa362eae79d13c5b8f7ce8f11");
    ("tardis", "clean", "tsp", 4682859, "0x1.1f2p+11", "9ddeb5d3fd5542e0f9cbef7eb8b22d01");
    ("tardis", "clean", "water", 155927757, "0x1.293cc893f694dp+8", "af6dc42c4b5a824370ad44b5aa238ca9");
    ("tardis", "drop", "sor", 5115377, "0x1.70d4575719efep+8", "fef92c7cc3128c584e3bdc877771d4fd");
    ("tardis", "drop", "tsp", 5237415, "0x1.1f2p+11", "afed3aadfa80fec94be1caef718a8eb3");
    ("tardis", "drop", "water", 165528769, "0x1.293cc893f694dp+8", "a7071d4ead9ae830f4dfed38506c2d50");
  ]

let test_sw_engines () =
  List.iter
    (fun (proto, mode, app, cycles, checksum, dg) ->
      let faults, crash =
        match mode with
        | "clean" -> (None, None)
        | "drop" -> (Some sw_faults, None)
        | _ -> (None, Some sw_churn)
      in
      check_row ~procs:4
        (Machines.get ?faults ?crash ~protocol:proto "treadmarks")
        ~label:(proto ^ " " ^ mode)
        (proto, app, cycles, checksum, dg))
    sw_golden

let suite =
  [
    Alcotest.test_case "every row pinned by name" `Quick test_named;
    Alcotest.test_case "every row pinned by topology spelling" `Quick
      test_spelled;
    Alcotest.test_case "every named platform is pinned" `Quick
      test_covers_every_platform;
    Alcotest.test_case "software engines pinned under drops and crashes"
      `Quick test_sw_engines;
  ]

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

let check_row (p : Platform.t) ~label (name, app, cycles, checksum, dg) =
  let r =
    try p.Platform.run (Registry.app ~scale:Registry.Quick app)
          ~nprocs:(procs_of name)
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

let suite =
  [
    Alcotest.test_case "every row pinned by name" `Quick test_named;
    Alcotest.test_case "every row pinned by topology spelling" `Quick
      test_spelled;
    Alcotest.test_case "every named platform is pinned" `Quick
      test_covers_every_platform;
  ]

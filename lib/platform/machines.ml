(* The named platforms are data: each is a topology expression on a host
   (DESIGN.md §15), plus the display name its reports carry and whether
   it honours the app's eager-release lock hints. *)

let table =
  [
    (* name, display name, tree@host, eager-release lock hints *)
    ("dec", "dec", "1@dec", false);
    ("treadmarks", "treadmarks-user", "lrc*8@dec", false);
    ("treadmarks-kernel", "treadmarks-kernel", "lrc*8@dec-kernel", false);
    ("treadmarks-eager", "treadmarks-user", "lrc*8@dec", true);
    ("treadmarks-erc", "treadmarks-erc", "erc*8@dec", false);
    ("ivy", "ivy", "ivy*64@dec", false);
    ("sgi", "sgi-4d480", "mesi*8@sgi", false);
    (* Paper Section 2.5: dual cache tags and a faster bus; the host
       doubles sustained bus bandwidth and halves snoop occupancy. *)
    ("sgi-fast", "sgi-fastbus", "mesi*8@sgi-fast", false);
    ("as", "AS", "lrc*256@sim", false);
    ("ah", "AH", "directory*256@sim", false);
    ("hs", "HS8", "lrc(mesi*8 x 32)@sim", false);
  ]

let names = List.map (fun (name, _, _, _) -> name) table
let protocols = Topology.engine_names ()

let parse spec =
  match Topology.of_string spec with
  | t, Some host -> (t, Topology.host_of_name host)
  | t, None -> (t, Topology.host_sim ())

(* The kind of a platform's root engine; None for the uniprocessor. *)
let root_kind spec =
  match fst (parse spec) with
  | Topology.Dom { engine; _ } -> Some (Topology.engine_kind engine)
  | Topology.Cpus _ -> None

(* [--protocol] replaces the root engine with one of the same kind; the
   uniprocessor mounts none. *)
let override ~name ~display tree protocol =
  let platforms pred =
    String.concat ", "
      (List.filter_map
         (fun (n, _, spec, _) -> if pred (root_kind spec) then Some n else None)
         table)
  in
  match tree with
  | Topology.Cpus _ ->
      invalid_arg
        (Printf.sprintf
           "platform %S is a uniprocessor and mounts no coherence engine; \
            protocol %S applies only to the shared-memory platforms (%s)"
           name protocol (platforms Option.is_some))
  | Topology.Dom { engine; children } ->
      let kind = Topology.engine_kind protocol
      and root = Topology.engine_kind engine in
      if kind <> root then
        invalid_arg
          (Printf.sprintf
             "platform %S mounts a %s engine at its root; protocol %S is a \
              %s engine (mount it on one of: %s)"
             name (Shm_proto.kind_name root) protocol
             (match kind with
             | Shm_proto.Sdsm -> "software-DSM"
             | Shm_proto.Hw -> "hardware cache-coherence")
             (platforms (( = ) (Some kind))));
      if protocol = engine then (tree, display)
      else
        (Topology.Dom { engine = protocol; children }, display ^ "+" ^ protocol)

let topology ?faults ?crash ?max_cycles ?instrument spec =
  Topology.of_spec ?faults ?crash ?max_cycles ?instrument spec

let topo_prefix = "topo:"

let get ?faults ?crash ?max_cycles ?instrument ?protocol name =
  if String.starts_with ~prefix:topo_prefix name then begin
    Option.iter
      (fun p ->
        invalid_arg
          (Printf.sprintf
             "a topology spec names its engines per level; --protocol %S \
              does not apply (write the engine into the spec, e.g. \
              \"lrc(mesi*8 x 4)\")"
             p))
      protocol;
    topology ?faults ?crash ?max_cycles ?instrument
      (String.sub name (String.length topo_prefix)
         (String.length name - String.length topo_prefix))
  end
  else
    match List.find_opt (fun (n, _, _, _) -> n = name) table with
    | None -> invalid_arg (Printf.sprintf "unknown platform %S" name)
    | Some (_, display, spec, eager) ->
        let tree, host = parse spec in
        let tree, display =
          match protocol with
          | None -> (tree, display)
          | Some p -> override ~name ~display tree p
        in
        Topology.build ~name:display ?faults ?crash ?max_cycles ?instrument
          ~eager ~host tree

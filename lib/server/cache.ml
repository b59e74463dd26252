(** Content-addressed store of expensive campaign artifacts.

    Baking an app (two-phase calibration build), making its golden
    run, and enumerating its fault-site population dominate campaign
    start-up; the results are pure functions of the app spelling.  The
    server therefore stores them under a key derived from a canonical
    description string, so a restarted server — or a freshly forked
    worker warm-starting a campaign it has never seen — loads the baked
    plan instead of recomputing it.

    An entry is a raw header followed by a [Marshal]ed payload:

    {v
    ftcache:3\n
    <fingerprint>\n
    <FNV-1a checksum of the payload, 16 hex digits>\n
    <payload>
    v}

    and is written atomically (temp file, fsync, rename).  [load]
    checks the header on the raw bytes and unmarshals nothing until
    both checks pass: a torn write, a flipped bit, or a stale entry
    from an incompatible build loads as [None] and is simply
    recomputed — the cache can never poison a campaign, and
    [Marshal.from_string] never sees bytes it did not write (on
    corrupt input it can crash the process rather than raise).

    The checksum guards bytes, not types: [Marshal] would happily
    deserialize an entry written by a binary with a different layout of
    the stored type into garbage.  The fingerprint (compiler version
    and the digest of the writing executable) therefore must be this
    process's own, so only a value marshalled by this exact binary is
    ever unmarshalled. *)

let format_magic = "ftcache:3\n"

(* the writing build's identity: an entry is only trusted when it was
   written by this exact executable (same type layouts, same Marshal
   compatibility) *)
let fingerprint : string Lazy.t =
  lazy
    (Printf.sprintf "%s:%s" Sys.ocaml_version
       (try Digest.to_hex (Digest.file Sys.executable_name)
        with Sys_error _ | Unix.Unix_error _ -> "no-exe-digest"))

(* everything before the checksum line *)
let header_prefix () : string = format_magic ^ Lazy.force fingerprint ^ "\n"

let checksum_line (sum : int64) : string = Printf.sprintf "%016Lx\n" sum

let key (description : string) : string =
  Printf.sprintf "%016Lx" (Wire.checksum description)

let path ~(dir : string) ~(key : string) : string =
  Filename.concat dir (key ^ ".bin")

let rec ensure_dir (dir : string) =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let store ~(dir : string) ~(key : string) (v : 'a) : string =
  ensure_dir dir;
  let payload = Marshal.to_string v [] in
  let final = path ~dir ~key in
  let tmp = final ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (header_prefix ());
  output_string oc (checksum_line (Wire.checksum payload));
  output_string oc payload;
  flush oc;
  Unix.fsync fd;
  close_out oc;
  Sys.rename tmp final;
  final

let load ~(dir : string) ~(key : string) : 'a option =
  let file = path ~dir ~key in
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        really_input_string ic n)
  with
  | exception Sys_error _ -> None
  | blob ->
      (* both checks on the raw bytes before anything is unmarshalled *)
      let prefix = header_prefix () in
      let off = String.length prefix + 17 in
      if String.length blob < off || not (String.starts_with ~prefix blob)
      then None
      else if
        not
          (String.equal
             (String.sub blob (String.length prefix) 17)
             (checksum_line (Wire.checksum ~off blob)))
      then None
      else (
        match Marshal.from_string blob off with
        | exception _ -> None
        | v -> Some v)

let entries (dir : string) : string list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".bin")
      |> List.map Filename.chop_extension
      |> List.sort compare

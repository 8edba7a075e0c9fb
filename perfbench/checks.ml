let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_mismatches ~dir sections =
  let rendered =
    List.filter_map
      (fun (id, text) ->
        let path = Filename.concat dir (id ^ ".txt") in
        if Sys.file_exists path && String.equal (read_file path) text then
          None
        else Some id)
      sections
  in
  let orphans =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".txt" then
             let id = Filename.chop_suffix f ".txt" in
             if List.mem_assoc id sections then None else Some id
           else None)
  in
  rendered @ orphans

let digests =
  List.map (fun (id, text) -> (id, Digest.to_hex (Digest.string text)))

let digest_mismatches ~reference actual =
  let differs (id, d) =
    match List.assoc_opt id reference with
    | Some d' when String.equal d d' -> None
    | _ -> Some id
  in
  let missing =
    List.filter_map
      (fun (id, _) -> if List.mem_assoc id actual then None else Some id)
      reference
  in
  List.filter_map differs actual @ missing

let cache_mismatch ~cold ~expected ~hits ~misses =
  let want_hits, want_misses = if cold then (0, expected) else (expected, 0) in
  if hits = want_hits && misses = want_misses then None
  else
    Some
      (Printf.sprintf
         "%d study-cache hits and %d misses, expected %d and %d (%s stores)"
         hits misses want_hits want_misses
         (if cold then "empty" else "filled"))

type entry = { path : string; size : int; mtime : float; inode : int }

let rec snapshot dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let path = Filename.concat dir e in
           let st = Unix.lstat path in
           if st.Unix.st_kind = Unix.S_DIR then snapshot path
           else
             [
               {
                 path;
                 size = st.st_size;
                 mtime = st.st_mtime;
                 inode = st.st_ino;
               };
             ])

let store_files ~suffix entries =
  List.length
    (List.filter (fun e -> Filename.check_suffix e.path suffix) entries)

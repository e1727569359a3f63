//! `serde_json::to_string` and `stable_hash` stream compact JSON straight
//! from the typed value. These tests pin that stream for every shape the
//! derive supports and the scalar renderings themselves, so cache keys
//! and record hashes cannot drift with the renderer. The literals are
//! the bytes the former value-tree renderer produced. The pretty pins
//! were captured from that renderer too, for the cases an indenter of
//! the compact stream can get wrong.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ecas_obs::{fnv1a_64, stable_hash};
use serde::Serialize;
use serde_json::Value;

/// Streams `value` as compact JSON text, checks that `stable_hash`
/// hashes exactly those bytes, and returns the text.
fn streamed<T: Serialize + ?Sized>(value: &T) -> String {
    let text = serde_json::to_string(value).unwrap();
    assert_eq!(stable_hash(value), fnv1a_64(text.as_bytes()), "{text}");
    text
}

#[derive(Serialize)]
struct Named {
    id: u32,
    label: String,
    weight: f64,
    tags: Vec<String>,
    next: Option<Box<Named>>,
}

#[derive(Serialize)]
struct NoNamedFields {}

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
struct Pair(i32, String);

#[derive(Serialize)]
struct NoTupleFields();

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
#[serde(transparent)]
struct Transparent {
    inner: Vec<u8>,
}

#[derive(Clone, Serialize)]
#[serde(into = "Vec<u16>")]
struct ViaInto {
    lo: u16,
    hi: u16,
}

impl From<ViaInto> for Vec<u16> {
    fn from(v: ViaInto) -> Self {
        vec![v.lo, v.hi]
    }
}

#[derive(Serialize)]
struct Generic<T, U>
where
    U: Clone,
{
    first: T,
    rest: Vec<U>,
}

#[derive(Serialize)]
struct GenericTuple<T>(T, T);

#[derive(Serialize)]
enum Shape {
    Unit,
    Newtype(f32),
    Tuple(u8, char, bool),
    NoFields(),
    Struct { x: i64, y: Option<f64> },
    NoNamedFields {},
}

#[test]
fn every_derive_shape_streams_the_tree_bytes() {
    let named = Named {
        id: 7,
        label: "a \"quoted\" label".to_string(),
        weight: 2.0,
        tags: vec!["x".to_string(), String::new()],
        next: Some(Box::new(Named {
            id: 8,
            label: "é".to_string(),
            weight: -0.25,
            tags: Vec::new(),
            next: None,
        })),
    };
    assert_eq!(
        streamed(&named),
        r#"{"id":7,"label":"a \"quoted\" label","weight":2.0,"tags":["x",""],"next":{"id":8,"label":"é","weight":-0.25,"tags":[],"next":null}}"#
    );
    assert_eq!(streamed(&NoNamedFields {}), "{}");
    assert_eq!(streamed(&Newtype(1.5)), "1.5");
    assert_eq!(streamed(&Pair(-3, "p".to_string())), r#"[-3,"p"]"#);
    assert_eq!(streamed(&NoTupleFields()), "[]");
    assert_eq!(streamed(&Unit), "null");
    assert_eq!(streamed(&Transparent { inner: vec![1, 2] }), "[1,2]");
    assert_eq!(streamed(&ViaInto { lo: 3, hi: 4 }), "[3,4]");
    let generic = Generic {
        first: Pair(1, "g".to_string()),
        rest: vec![Some(1u8), None],
    };
    assert_eq!(streamed(&generic), r#"{"first":[1,"g"],"rest":[1,null]}"#);
    assert_eq!(streamed(&GenericTuple('a', 'b')), r#"["a","b"]"#);
    let shapes = [
        (Shape::Unit, r#""Unit""#),
        (Shape::Newtype(0.5), r#"{"Newtype":0.5}"#),
        (Shape::Tuple(9, '"', true), r#"{"Tuple":[9,"\"",true]}"#),
        (Shape::NoFields(), r#"{"NoFields":[]}"#),
        (
            Shape::Struct { x: -1, y: None },
            r#"{"Struct":{"x":-1,"y":null}}"#,
        ),
        (
            Shape::Struct { x: 2, y: Some(3.0) },
            r#"{"Struct":{"x":2,"y":3.0}}"#,
        ),
        (Shape::NoNamedFields {}, r#"{"NoNamedFields":{}}"#),
    ];
    for (shape, json) in &shapes {
        assert_eq!(streamed(shape), *json);
    }
    let jsons: Vec<&str> = shapes.iter().map(|(_, json)| *json).collect();
    assert_eq!(
        streamed(&shapes.iter().map(|(s, _)| s).collect::<Vec<_>>()),
        format!("[{}]", jsons.join(","))
    );
}

#[test]
fn containers_stream_the_tree_bytes() {
    assert_eq!(streamed(&None::<u8>), "null");
    assert_eq!(streamed(&Some("s")), r#""s""#);
    assert_eq!(
        streamed(&vec![vec![1.0, 2.5], Vec::new(), vec![-0.0]]),
        "[[1.0,2.5],[],[-0.0]]"
    );
    assert_eq!(streamed(&[1u8, 2, 3][..]), "[1,2,3]");
    assert_eq!(streamed(&[true, false]), "[true,false]");
    assert_eq!(streamed(&(1u8,)), "[1]");
    assert_eq!(streamed(&(1u8, "two")), r#"[1,"two"]"#);
    assert_eq!(streamed(&(1u8, "two", 3.0)), r#"[1,"two",3.0]"#);
    assert_eq!(streamed(&(1u8, "two", 3.0, 'f')), r#"[1,"two",3.0,"f"]"#);
    let btree: BTreeMap<String, u32> = [("b", 2), ("a", 1), ("c\"", 3)]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_eq!(streamed(&btree), r#"{"a":1,"b":2,"c\"":3}"#);
    let mut hash: HashMap<String, Vec<u8>> = HashMap::new();
    for key in ["zeta", "alpha", "mu", "beta", "omega", "eta"] {
        hash.insert(key.to_string(), key.bytes().take(2).collect());
    }
    assert_eq!(
        streamed(&hash),
        r#"{"alpha":[97,108],"beta":[98,101],"eta":[101,116],"mu":[109,117],"omega":[111,109],"zeta":[122,101]}"#
    );
    let set: BTreeSet<i16> = [3, -1, 2].into_iter().collect();
    assert_eq!(streamed(&set), "[-1,2,3]");
    assert_eq!(streamed(&Box::new(5u64)), "5");
    let value: Value = serde_json::from_str(r#"{"a":1,"b":2,"c\"":3}"#).unwrap();
    assert_eq!(streamed(&value), r#"{"a":1,"b":2,"c\"":3}"#);
}

#[test]
fn integers_and_text_stream_the_tree_bytes() {
    assert_eq!(streamed(&i8::MIN), "-128");
    assert_eq!(streamed(&i64::MIN), "-9223372036854775808");
    assert_eq!(streamed(&u64::MAX), "18446744073709551615");
    assert_eq!(streamed(&usize::MAX), usize::MAX.to_string());
    assert_eq!(streamed(&-5isize), "-5");
    assert_eq!(streamed(&0u16), "0");
    for (c, json) in [
        ('a', r#""a""#),
        ('"', r#""\"""#),
        ('\\', r#""\\""#),
        ('\n', r#""\n""#),
        ('\u{0}', r#""\u0000""#),
        ('é', r#""é""#),
        ('😀', r#""😀""#),
    ] {
        assert_eq!(streamed(&c), json);
    }
    let text = "q\"b\\s/\n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f} é日本😀 end";
    assert_eq!(
        streamed(text),
        r#""q\"b\\s/\n\r\t\b\f\u0000\u0001\u001f"#.to_string() + "\u{7f} é日本😀 end\""
    );
    assert_eq!(streamed(&text.to_string()), streamed(text));
    assert_eq!(streamed(""), r#""""#);
    assert_eq!(streamed("\"\""), r#""\"\"""#);
}

#[test]
fn floats_stream_the_tree_bytes() {
    for (f, json) in [
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (-2.0, "-2.0"),
        (0.1, "0.1"),
        (1.5e-7, "0.00000015"),
        (999_999_999_999_999.0, "999999999999999.0"),
        (-999_999_999_999_999.0, "-999999999999999.0"),
        (1e15, "1000000000000000"),
        (-1e15, "-1000000000000000"),
        (1e15 + 0.5, "1000000000000000.5"),
        (1e16, "10000000000000000"),
        (123.456, "123.456"),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
    ] {
        assert_eq!(streamed(&f), json, "{f:?}");
    }
    for f in [f64::MIN_POSITIVE, f64::MAX, -f64::MAX, 5e-324] {
        assert_eq!(streamed(&f), f.to_string(), "{f:?}");
    }
    for (f, json) in [
        (0.1f32, "0.10000000149011612"),
        (3.0f32, "3.0"),
        (-0.0f32, "-0.0"),
        (f32::NAN, "null"),
        (f32::INFINITY, "null"),
    ] {
        assert_eq!(streamed(&f), json, "{f:?}");
    }
}

#[test]
fn pretty_json_is_pinned() {
    let pretty = |value: &dyn Serialize| {
        let mut text = String::new();
        value.write_json(&mut text).unwrap();
        let pretty = serde_json::to_string_pretty(value).unwrap();
        // Indenting adds only whitespace outside strings: it parses back
        // to the same value.
        assert_eq!(
            serde_json::from_str::<Value>(&pretty).unwrap(),
            serde_json::from_str::<Value>(&text).unwrap()
        );
        // A writer receives the same bytes, streamed.
        let mut written = Vec::new();
        serde_json::to_writer_pretty(&mut written, value).unwrap();
        assert_eq!(String::from_utf8(written).unwrap(), pretty);
        pretty
    };
    assert_eq!(pretty(&Vec::<u8>::new()), "[]");
    assert_eq!(pretty(&BTreeMap::<String, u8>::new()), "{}");
    assert_eq!(pretty(&None::<u8>), "null");
    let nested: Value = serde_json::from_str(
        r#"{"a":[],"b":{},"c":[[],{},[[]],{"d":{}}],"e":[{"f":[1,{}]},2.5,null,true]}"#,
    )
    .unwrap();
    assert_eq!(
        pretty(&nested),
        r#"{
  "a": [],
  "b": {},
  "c": [
    [],
    {},
    [
      []
    ],
    {
      "d": {}
    }
  ],
  "e": [
    {
      "f": [
        1,
        {}
      ]
    },
    2.5,
    null,
    true
  ]
}"#
    );
    let tricky = "{ [ , : \" \\ \u{1} ] }";
    assert_eq!(pretty(&tricky), r#""{ [ , : \" \\ \u0001 ] }""#);
    assert_eq!(
        pretty(&vec![tricky, "end\\", "\\\"", ""]),
        r#"[
  "{ [ , : \" \\ \u0001 ] }",
  "end\\",
  "\\\"",
  ""
]"#
    );
    let mut map = BTreeMap::new();
    map.insert("k\"{[:,\\\n".to_string(), vec![Some(1u8), None]);
    map.insert("plain".to_string(), Vec::new());
    assert_eq!(
        pretty(&map),
        r#"{
  "k\"{[:,\\\n": [
    1,
    null
  ],
  "plain": []
}"#
    );
}

/// A writer that accepts `room` bytes, then fails.
struct Full {
    room: usize,
}

impl std::io::Write for Full {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.room == 0 {
            return Err(std::io::Error::other("disk full"));
        }
        let n = buf.len().min(self.room);
        self.room -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `to_writer_pretty` streams into its writer, so a write fails mid-value:
/// the caller must see that writer's I/O error, not the bare formatter
/// error the indenter passes up.
#[test]
fn a_failing_pretty_writer_surfaces_its_own_error() {
    let value = vec![vec![1u64, 2], vec![3]];
    let total = serde_json::to_string_pretty(&value).unwrap().len();
    for room in [0, 1, 5, total - 1] {
        let err = serde_json::to_writer_pretty(Full { room }, &value).unwrap_err();
        assert_eq!(err.to_string(), "io error: disk full", "room {room}");
    }
    serde_json::to_writer_pretty(Full { room: total }, &value).unwrap();
}

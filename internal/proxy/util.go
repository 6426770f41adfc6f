package proxy

import (
	"image"
	"net/url"
	"strings"

	"msite/internal/attr"
	"msite/internal/css"
	"msite/internal/dom"
	"msite/internal/fetch"
	"msite/internal/html"
	"msite/internal/imaging"
	"msite/internal/layout"
)

// tidyDoc parses filtered source into a normalized document.
func tidyDoc(src string) *dom.Node {
	return html.Tidy(src)
}

// layoutForDoc lays out a document at the proxy's render width.
func layoutForDoc(doc *dom.Node, width int) *layout.Result {
	styler := css.StylerForDocument(doc)
	return layout.Layout(doc, styler, layout.Viewport{Width: width})
}

// pageHTML serializes the adapted main document.
func pageHTML(result *attr.Result) []byte {
	return []byte(html.Render(result.Doc))
}

// maxRenderImages bounds per-page image downloads.
const maxRenderImages = 48

// renderImages are the images a render of a document needs: each src
// attribute value as written (the key the rasterizer looks up) beside
// its absolute URL.
type renderImages struct {
	srcs, urls []string
}

// findImages walks doc once for the distinct <img> sources a render
// needs, at most maxRenderImages, skipping data: URIs and sources that
// do not resolve against base.
func findImages(doc *dom.Node, base string) renderImages {
	baseURL, err := url.Parse(base)
	if err != nil {
		return renderImages{}
	}
	var r renderImages
	seen := make(map[string]bool)
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode || n.Tag != "img" || len(r.srcs) >= maxRenderImages {
			return true
		}
		src := n.AttrOr("src", "")
		if src == "" || strings.HasPrefix(src, "data:") || seen[src] {
			return true
		}
		abs, err := baseURL.Parse(src)
		if err != nil {
			return true
		}
		seen[src] = true
		r.srcs = append(r.srcs, src)
		r.urls = append(r.urls, abs.String())
		return true
	})
	return r
}

// decode decodes the downloaded images, results[i] being the download of
// urls[i]. Undecodable or unfetchable images are skipped: the renderer
// falls back to placeholders.
func (r renderImages) decode(results []fetch.Result) map[string]image.Image {
	images := make(map[string]image.Image)
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		decoded, err := imaging.Decode(res.Page.Body)
		if err != nil {
			continue
		}
		// Key by the attribute as written and by its absolute form: the
		// URL-anchoring pass rewrites srcs to absolute before the
		// snapshot render looks them up.
		images[r.srcs[i]] = decoded
		images[r.urls[i]] = decoded
	}
	return images
}
